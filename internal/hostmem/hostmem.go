// Package hostmem models the Vector Host's DRAM: a mem.Heap with a
// configurable page size (4 KiB or 2 MiB huge pages — the paper
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

// Host is one Vector Host's memory system: the DRAM heap plus what is
// particular to a VH — its page size and the SysV segment registry.
type Host struct {
	*mem.Heap
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
	heap, err := mem.NewHeap(name, heapBase, capacity.Int64())
	if err != nil {
		return nil, err
	}
	return &Host{
		Heap:     heap,
		PageSize: pageSize,
		shm:      make(map[int]*ShmSegment),
		nextKey:  0x5845, // arbitrary ftok-style starting key
	}, nil
}

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
	if err := h.Free(seg.Addr); err != nil {
		return err // still registered: the segment's memory is still there
	}
	delete(h.shm, key)
	return nil
}
