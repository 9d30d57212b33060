package mem

// heapAlign is the alignment of every heap allocation: one cache line, which
// also keeps 64-bit flag words naturally aligned.
const heapAlign = 64

// Heap is one node's memory: an address space and the allocator that carves
// it up, kept in step — every live allocation is a mapped extent and nothing
// else is. It is the module's one implementation of "reserve and map" and of
// "unmap and release"; the Vector Host's DRAM, a VE's HBM and the wall-clock
// backends' process heaps are all a Heap plus what is particular to them.
// Loads and stores go through the embedded Memory.
type Heap struct {
	*Memory
	alloc *Allocator
}

// NewHeap returns an empty heap over [base, base+capacity).
func NewHeap(name string, base Addr, capacity int64) (*Heap, error) {
	a, err := NewAllocator(name+"-alloc", base, capacity, heapAlign)
	if err != nil {
		return nil, err
	}
	return &Heap{Memory: NewMemory(name), alloc: a}, nil
}

// Alloc reserves and maps n zero-filled bytes.
func (h *Heap) Alloc(n int64) (Addr, error) { return h.reserve(n, nil) }

// AllocBytes is Alloc, at the address Alloc would return, with data itself
// mapped there uncopied: on the real platform user data already lives in VH
// memory. Free drops the alias with the extent.
func (h *Heap) AllocBytes(data []byte) (Addr, error) { return h.reserve(int64(len(data)), data) }

// reserve takes n bytes from the allocator and maps them — onto data when
// there is some, zero-filled otherwise — handing the range back if the
// mapping fails.
func (h *Heap) reserve(n int64, data []byte) (Addr, error) {
	addr, err := h.alloc.Alloc(n)
	if err != nil {
		return 0, err
	}
	if data != nil {
		err = h.MapBytes(addr, data)
	} else {
		size, _ := h.alloc.SizeOf(addr)
		err = h.Map(addr, size)
	}
	if err != nil {
		// Cannot happen with a consistent allocator, but keep state sane.
		_ = h.alloc.Free(addr)
		return 0, err
	}
	return addr, nil
}

// Free releases an allocation made with Alloc or AllocBytes. The range is
// unmapped while the allocation is still live — once the allocator has it
// back it may re-issue the range, so addr must not be touched afterwards. An
// addr that is not a live allocation fails here and leaves the heap as it was.
func (h *Heap) Free(addr Addr) error {
	if err := h.Unmap(addr); err != nil {
		return err
	}
	return h.alloc.Free(addr)
}

// LiveAllocs returns the number of live allocations: the one leak check.
func (h *Heap) LiveAllocs() int { return h.alloc.LiveCount() }
