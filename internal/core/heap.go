package core

import (
	"sync"

	"hamoffload/internal/mem"
)

// Heap is a LocalMemory backed by the shared sparse-memory machinery — used
// by the wall-clock backends (loopback, TCP) where a node's memory is just
// process memory rather than simulated device memory. Those backends reach
// it from several goroutines (the serve loop's handlers, put/get traffic),
// so every method takes the heap's lock.
type Heap struct {
	mu sync.Mutex
	m  *mem.Memory
	a  *mem.Allocator
}

// NewHeap creates a heap of the given capacity. The base address is
// arbitrary but non-zero so that address 0 stays a null pointer.
func NewHeap(name string, capacity int64) (*Heap, error) {
	a, err := mem.NewAllocator(name, 0x1000, capacity, 64)
	if err != nil {
		return nil, err
	}
	return &Heap{m: mem.NewMemory(name), a: a}, nil
}

// Alloc implements LocalMemory.
func (h *Heap) Alloc(n int64) (uint64, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	addr, err := h.a.Alloc(n)
	if err != nil {
		return 0, err
	}
	size, _ := h.a.SizeOf(addr)
	if err := h.m.Map(addr, size); err != nil {
		_ = h.a.Free(addr)
		return 0, err
	}
	return uint64(addr), nil
}

// Free implements LocalMemory.
func (h *Heap) Free(addr uint64) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.a.Free(mem.Addr(addr)); err != nil {
		return err
	}
	return h.m.Unmap(mem.Addr(addr))
}

// Read implements LocalMemory.
func (h *Heap) Read(addr uint64, p []byte) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.m.ReadAt(p, mem.Addr(addr))
}

// Write implements LocalMemory.
func (h *Heap) Write(addr uint64, data []byte) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.m.WriteAt(data, mem.Addr(addr))
}

// Live returns the number of live allocations, for leak checks in tests.
func (h *Heap) Live() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.a.LiveCount()
}
