package mem

import (
	"bytes"
	"testing"
)

func newHeap(t *testing.T) *Heap {
	t.Helper()
	h, err := NewHeap("test", 0x1000, 1<<20)
	if err != nil {
		t.Fatalf("NewHeap: %v", err)
	}
	return h
}

// TestHeapRoundTrip is the life of one allocation as a node's LocalMemory
// sees it: mapped and zero-filled while live, a fault once freed.
func TestHeapRoundTrip(t *testing.T) {
	h := newHeap(t)
	addr, err := h.Alloc(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("one node's memory")
	if err := h.WriteAt(data, addr+8); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := h.ReadAt(got, addr+8); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back %q, %v", got, err)
	}
	if h.LiveAllocs() != 1 || h.MappedBytes() != 1<<16 || h.FreeBytes() != 1<<20-1<<16 {
		t.Errorf("%d live, %d mapped, %d free", h.LiveAllocs(), h.MappedBytes(), h.FreeBytes())
	}
	if err := h.Free(addr); err != nil {
		t.Fatal(err)
	}
	if err := h.ReadAt(got, addr+8); err == nil {
		t.Error("read after Free should fault")
	}
	if err := h.Free(addr); err == nil {
		t.Error("double Free should fail")
	}
	if h.LiveAllocs() != 0 || h.MappedBytes() != 0 || h.FreeBytes() != 1<<20 {
		t.Errorf("after Free: %d live, %d mapped, %d free", h.LiveAllocs(), h.MappedBytes(), h.FreeBytes())
	}
	if _, err := h.Alloc(2 << 20); err == nil || h.LiveAllocs() != 0 {
		t.Errorf("over-capacity Alloc: %v, %d live", err, h.LiveAllocs())
	}
}

// TestHeapAddresses pins the placement VE addresses in messages and the
// benchmark fingerprints depend on: from the base up, 64-byte aligned, first
// fit.
func TestHeapAddresses(t *testing.T) {
	h := newHeap(t)
	var got []Addr
	alloc := func(n int64) Addr {
		a, err := h.Alloc(n)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, a)
		return a
	}
	first := alloc(100)
	alloc(1)
	if err := h.Free(first); err != nil {
		t.Fatal(err)
	}
	alloc(129) // does not fit the 128-byte hole
	alloc(128) // does
	want := []Addr{0x1000, 0x1080, 0x10c0, 0x1000}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("allocations at %#x, want %#x", got, want)
		}
	}
}

// TestHeapFreeUnmapsFirst: a Free that cannot unmap must fail before the
// allocator lets go of the range — released first, the still-mapped range
// would be re-issued and the next Alloc of it could not map.
func TestHeapFreeUnmapsFirst(t *testing.T) {
	h := newHeap(t)
	addr, err := h.Alloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Unmap(addr); err != nil { // knock the heap out of step
		t.Fatal(err)
	}
	free := h.FreeBytes()
	if err := h.Free(addr); err == nil {
		t.Fatal("Free of an unmapped allocation succeeded")
	}
	if h.LiveAllocs() != 1 || h.FreeBytes() != free {
		t.Errorf("failed Free released the range: %d live, %d free (was %d)", h.LiveAllocs(), h.FreeBytes(), free)
	}
	if next, err := h.Alloc(4096); err != nil || next == addr {
		t.Errorf("Alloc after the failed Free = %#x, %v; %#x is still taken", next, err, addr)
	}
}
