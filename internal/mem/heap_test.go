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
	if h.LiveAllocs() != 1 || h.MappedBytes() != 1<<16 || h.alloc.FreeBytes() != 1<<20-1<<16 {
		t.Errorf("%d live, %d mapped, %d free", h.LiveAllocs(), h.MappedBytes(), h.alloc.FreeBytes())
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
	if h.LiveAllocs() != 0 || h.MappedBytes() != 0 || h.alloc.FreeBytes() != 1<<20 {
		t.Errorf("after Free: %d live, %d mapped, %d free", h.LiveAllocs(), h.MappedBytes(), h.alloc.FreeBytes())
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
	free := h.alloc.FreeBytes()
	if err := h.Free(addr); err == nil {
		t.Fatal("Free of an unmapped allocation succeeded")
	}
	if h.LiveAllocs() != 1 || h.alloc.FreeBytes() != free {
		t.Errorf("failed Free released the range: %d live, %d free (was %d)", h.LiveAllocs(), h.alloc.FreeBytes(), free)
	}
	if next, err := h.Alloc(4096); err != nil || next == addr {
		t.Errorf("Alloc after the failed Free = %#x, %v; %#x is still taken", next, err, addr)
	}
}

// TestAllocBytesZeroAlloc pins a transfer's mapping of the caller's buffer —
// AllocBytes, then Free, of sizes from one chunk to many — at zero
// allocations once the heap is warm: Free keeps the extent and its chunk
// table, and the next Map reuses them. What it keeps holds nothing: every
// spare table entry, past len too, is nil, so neither the caller's bytes nor
// a chunk outlive the Free.
func TestAllocBytesZeroAlloc(t *testing.T) {
	h, err := NewHeap("transfer", 0x1000, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	bufs := [][]byte{make([]byte, 4<<10), make([]byte, 16<<20), make([]byte, 64<<10), make([]byte, 1<<20)}
	var bad error
	cycle := func() {
		for _, b := range bufs {
			addr, err := h.AllocBytes(b)
			if err == nil {
				err = h.Free(addr)
			}
			if err != nil {
				bad = err
			}
		}
	}
	cycle()
	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Errorf("a warm AllocBytes+Free cycle of %d sizes allocates %.1f objects, want 0", len(bufs), n)
	}
	if bad != nil {
		t.Fatal(bad)
	}
	if h.LiveAllocs() != 0 || h.MappedBytes() != 0 || len(h.spare) == 0 {
		t.Fatalf("%d live, %d mapped, %d spare extents", h.LiveAllocs(), h.MappedBytes(), len(h.spare))
	}
	for _, e := range h.spare {
		for i, c := range e.chunks[:cap(e.chunks)] {
			if c != nil {
				t.Fatalf("a spare extent's chunk %d still references %d bytes", i, len(c))
			}
		}
	}

	// A recycled extent is an ordinary one: zero-filled, chunk-lazy, and
	// viewed into one array only once viewed.
	addr, err := h.Alloc(3 * ChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 3*ChunkSize)
	if err := h.ReadAt(got, addr); err != nil || !bytes.Equal(got, make([]byte, len(got))) {
		t.Fatalf("a recycled extent reads %v, not zeros", err)
	}
	if h.ResidentBytes() != 0 {
		t.Errorf("a fresh allocation on a recycled extent is %d bytes resident", h.ResidentBytes())
	}
}
