package core

import (
	"sync"

	"hamoffload/internal/mem"
)

// Heap is a mem.Heap under a lock — the LocalMemory of the wall-clock
// backends (loopback, TCP), where a node's memory is just process memory
// rather than simulated device memory and several goroutines reach it (the
// serve loop's handlers, put/get traffic).
type Heap struct {
	mu sync.Mutex
	h  *mem.Heap
}

// NewHeap creates a heap of the given capacity. The base address is
// arbitrary but non-zero so that address 0 stays a null pointer.
func NewHeap(name string, capacity int64) (*Heap, error) {
	h, err := mem.NewHeap(name, 0x1000, capacity)
	if err != nil {
		return nil, err
	}
	return &Heap{h: h}, nil
}

// Alloc implements LocalMemory.
func (h *Heap) Alloc(n int64) (mem.Addr, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.Alloc(n)
}

// Free implements LocalMemory.
func (h *Heap) Free(addr mem.Addr) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.Free(addr)
}

// View implements LocalMemory; the view outlives the lock, as a pointer does.
func (h *Heap) View(addr mem.Addr, n int64) ([]byte, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.View(addr, n)
}

// ReadAt copies len(p) bytes from addr into p: the backends' Get.
func (h *Heap) ReadAt(p []byte, addr mem.Addr) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.ReadAt(p, addr)
}

// WriteAt copies p to addr: the backends' Put.
func (h *Heap) WriteAt(p []byte, addr mem.Addr) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.WriteAt(p, addr)
}

// LiveAllocs returns the number of live allocations, for leak checks.
func (h *Heap) LiveAllocs() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.LiveAllocs()
}

var (
	_ LocalMemory = (*mem.Heap)(nil)
	_ LocalMemory = (*Heap)(nil)
)
