// Package vemem models a Vector Engine's memory system: the HBM2-backed
// local memory (a mem.Heap), and the DMAATB (DMA Address Translation
// Buffer) through which VH shared-memory segments and local VE buffers are
// registered and become addressable as VEHVA (VE Host Virtual Addresses) for
// user DMA and the LHM/SHM instructions (paper §I-B and §IV-A).
package vemem

import (
	"fmt"
	"sort"

	"hamoffload/internal/mem"
	"hamoffload/internal/units"
)

// Address-space layout constants of the simulated VE process. The values are
// arbitrary but distinct so that mixing up address spaces faults loudly.
const (
	HeapBase  mem.Addr = 0x6000_0000_0000 // VEMVA heap (local HBM)
	vehvaBase mem.Addr = 0x1000_0000_0000 // VEHVA window (DMAATB-mapped)
)

// VE is one Vector Engine's memory system: the HBM heap plus the DMAATB.
type VE struct {
	*mem.Heap
	dmaatb *DMAATB
}

// New creates a VE memory with the given HBM capacity (48 GiB on a Type
// 10B; the sparse backing means only allocated buffers consume real memory).
func New(name string, capacity units.Bytes) (*VE, error) {
	heap, err := mem.NewHeap(name+"-hbm", HeapBase, capacity.Int64())
	if err != nil {
		return nil, err
	}
	return &VE{Heap: heap, dmaatb: newDMAATB(name)}, nil
}

// ATB returns the VE's DMA address translation buffer.
func (v *VE) ATB() *DMAATB { return v.dmaatb }

// DMAATB maps VEHVA ranges onto backing memories. The VE has no IOMMU, so
// every remote (and local) buffer touched by user DMA or LHM/SHM must be
// registered here first.
type DMAATB struct {
	name    string
	next    mem.Addr
	entries []atbEntry // sorted by vehva
	gen     uint64     // moves on every Register
}

type atbEntry struct {
	vehva  mem.Addr
	size   int64
	target *mem.Memory
	base   mem.Addr
}

func newDMAATB(name string) *DMAATB {
	return &DMAATB{name: name + "-dmaatb", next: vehvaBase}
}

// Generation numbers the registrations: it moves on every Register, so a
// translation made in one generation holds until it moves.
func (d *DMAATB) Generation() uint64 { return d.gen }

// Register maps [base, base+size) of target into the VEHVA window and
// returns the assigned VEHVA. Registrations are page (64 KiB) aligned in the
// window, mirroring the hardware's translation granularity.
func (d *DMAATB) Register(target *mem.Memory, base mem.Addr, size int64) (mem.Addr, error) {
	if size <= 0 {
		return 0, fmt.Errorf("%s: register size %d must be positive", d.name, size)
	}
	if !target.Mapped(base, size) {
		return 0, fmt.Errorf("%s: register of unmapped range [%#x,+%d) in %s",
			d.name, base, size, target.Name())
	}
	vehva := d.next
	d.next += mem.Addr(units.AlignUp(units.Bytes(size), 64*units.KiB).Int64())
	d.entries = append(d.entries, atbEntry{vehva: vehva, size: size, target: target, base: base})
	d.gen++
	return vehva, nil
}

// Translate resolves [vehva, vehva+n) to its backing memory and address.
// The range must lie entirely within one registration, as a hardware DMA
// descriptor's address check would require.
func (d *DMAATB) Translate(vehva mem.Addr, n int64) (*mem.Memory, mem.Addr, error) {
	if n < 0 {
		return nil, 0, fmt.Errorf("%s: translate negative length %d", d.name, n)
	}
	i := sort.Search(len(d.entries), func(i int) bool {
		return d.entries[i].vehva+mem.Addr(d.entries[i].size) > vehva
	})
	if i >= len(d.entries) || d.entries[i].vehva > vehva {
		return nil, 0, fmt.Errorf("%s: DMA exception: VEHVA %#x not registered", d.name, vehva)
	}
	e := d.entries[i]
	if vehva+mem.Addr(n) > e.vehva+mem.Addr(e.size) {
		return nil, 0, fmt.Errorf("%s: DMA exception: [%#x,+%d) exceeds registration [%#x,+%d)",
			d.name, vehva, n, e.vehva, e.size)
	}
	return e.target, e.base + (vehva - e.vehva), nil
}
