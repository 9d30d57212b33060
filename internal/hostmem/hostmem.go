// Package hostmem models the Vector Host's DRAM: a sparse memory with an
// allocator, a configurable page size (4 KiB or 2 MiB huge pages — the paper
// stresses that huge pages are required for peak VEO bandwidth), and the
// SystemV shared-memory segment registry used by the DMA-based protocol
// (paper §IV-A, Fig. 7).
package hostmem

import (
	"fmt"

	"hamoffload/internal/mem"
	"hamoffload/internal/units"
)

// Base of the simulated VH heap; an arbitrary but recognisable constant.
const heapBase mem.Addr = 0x7f00_0000_0000

// Host is one Vector Host's memory system.
type Host struct {
	Mem      *mem.Memory
	alloc    *mem.Allocator
	PageSize units.Bytes

	shm     map[int]*ShmSegment
	nextKey int
}

// ShmSegment is a SystemV shared-memory segment created by the VH and
// attachable from VE processes via its key (shmget semantics).
type ShmSegment struct {
	Key  int
	Addr mem.Addr // address within the VH memory
	Size int64
}

// New creates a host memory of the given capacity and page size.
func New(name string, capacity, pageSize units.Bytes) (*Host, error) {
	if !units.IsPowerOfTwo(pageSize) {
		return nil, fmt.Errorf("hostmem: page size %v must be a power of two", pageSize)
	}
	a, err := mem.NewAllocator(name+"-alloc", heapBase, capacity.Int64(), 64)
	if err != nil {
		return nil, err
	}
	return &Host{
		Mem:      mem.NewMemory(name),
		alloc:    a,
		PageSize: pageSize,
		shm:      make(map[int]*ShmSegment),
		nextKey:  0x5845, // arbitrary ftok-style starting key
	}, nil
}

// Alloc reserves and maps size bytes of host memory.
func (h *Host) Alloc(size int64) (mem.Addr, error) {
	addr, err := h.alloc.Alloc(size)
	if err != nil {
		return 0, err
	}
	mapped, _ := h.alloc.SizeOf(addr)
	if err := h.Mem.Map(addr, mapped); err != nil {
		// Cannot happen with a consistent allocator, but keep state sane.
		_ = h.alloc.Free(addr)
		return 0, err
	}
	return addr, nil
}

// AllocBytes is Alloc, at the address Alloc would return, with data itself
// mapped there uncopied: on the real platform user data already lives in VH
// memory. Free drops the alias with the extent.
func (h *Host) AllocBytes(data []byte) (mem.Addr, error) {
	addr, err := h.alloc.Alloc(int64(len(data)))
	if err != nil {
		return 0, err
	}
	if err := h.Mem.MapBytes(addr, data); err != nil {
		_ = h.alloc.Free(addr)
		return 0, err
	}
	return addr, nil
}

// Free releases an allocation made with Alloc or AllocBytes. The range is
// unmapped while the allocation is still live — once alloc.Free runs, the
// allocator may re-issue the range, so addr must not be touched afterwards.
func (h *Host) Free(addr mem.Addr) error {
	if err := h.Mem.Unmap(addr); err != nil {
		return err
	}
	return h.alloc.Free(addr)
}

// LiveAllocs returns the number of live heap allocations.
func (h *Host) LiveAllocs() int { return h.alloc.LiveCount() }

// ShmCreate allocates a shared-memory segment of size bytes, aligned to the
// host page size (SysV segments are page-granular), and returns it.
func (h *Host) ShmCreate(size int64) (*ShmSegment, error) {
	size = units.AlignUp(units.Bytes(size), h.PageSize).Int64()
	addr, err := h.Alloc(size)
	if err != nil {
		return nil, fmt.Errorf("hostmem: shmget: %w", err)
	}
	h.nextKey++
	seg := &ShmSegment{Key: h.nextKey, Addr: addr, Size: size}
	h.shm[seg.Key] = seg
	return seg, nil
}

// ShmGet looks a segment up by key, as a VE process would after receiving
// the key from the VH.
func (h *Host) ShmGet(key int) (*ShmSegment, error) {
	seg, ok := h.shm[key]
	if !ok {
		return nil, fmt.Errorf("hostmem: shmget: no segment with key %#x", key)
	}
	return seg, nil
}

// ShmRemove destroys a segment and frees its memory.
func (h *Host) ShmRemove(key int) error {
	seg, ok := h.shm[key]
	if !ok {
		return fmt.Errorf("hostmem: shmctl(IPC_RMID): no segment with key %#x", key)
	}
	delete(h.shm, key)
	return h.Free(seg.Addr)
}

// Pages returns how many host pages the range [addr, addr+n) touches, the
// unit of privileged-DMA translation work.
func (h *Host) Pages(addr mem.Addr, n int64) int64 {
	return mem.PageCount(addr, n, h.PageSize.Int64())
}
