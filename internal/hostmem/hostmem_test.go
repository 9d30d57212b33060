package hostmem

import (
	"testing"

	"hamoffload/internal/mem"
	"hamoffload/internal/units"
)

func newHost(t *testing.T) *Host {
	t.Helper()
	h, err := New("vh", 256*units.MiB, 2*units.MiB)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return h
}

func TestAllocFreeRoundTrip(t *testing.T) {
	h := newHost(t)
	addr, err := h.Alloc(4096)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if err := h.WriteAt([]byte("host data"), addr); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	got := make([]byte, 9)
	if err := h.ReadAt(got, addr); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if string(got) != "host data" {
		t.Fatalf("got %q", got)
	}
	if h.LiveAllocs() != 1 {
		t.Fatalf("LiveAllocs = %d, want 1", h.LiveAllocs())
	}
	if err := h.Free(addr); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if err := h.ReadAt(got, addr); err == nil {
		t.Error("read after Free should fault")
	}
}

func TestNewRejectsBadPageSize(t *testing.T) {
	if _, err := New("vh", units.MiB, 3000); err == nil {
		t.Error("non-power-of-two page size accepted")
	}
	if _, err := New("vh", units.MiB, 0); err == nil {
		t.Error("zero page size accepted")
	}
}

func TestShmLifecycle(t *testing.T) {
	h := newHost(t)
	seg, err := h.ShmCreate(1000)
	if err != nil {
		t.Fatalf("ShmCreate: %v", err)
	}
	// SysV segments are page-granular.
	if seg.Size != (2 * units.MiB).Int64() {
		t.Errorf("segment size = %d, want one huge page", seg.Size)
	}
	got, err := h.ShmGet(seg.Key)
	if err != nil || got != seg {
		t.Fatalf("ShmGet = %v, %v", got, err)
	}
	if err := h.WriteAt([]byte{1, 2, 3}, seg.Addr); err != nil {
		t.Fatalf("segment not mapped: %v", err)
	}
	if err := h.ShmRemove(seg.Key); err != nil {
		t.Fatalf("ShmRemove: %v", err)
	}
	if _, err := h.ShmGet(seg.Key); err == nil {
		t.Error("ShmGet after remove should fail")
	}
	if err := h.ShmRemove(seg.Key); err == nil {
		t.Error("double ShmRemove should fail")
	}
}

func TestShmKeysDistinct(t *testing.T) {
	h := newHost(t)
	a, err := h.ShmCreate(100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.ShmCreate(100)
	if err != nil {
		t.Fatal(err)
	}
	if a.Key == b.Key {
		t.Error("two segments share a key")
	}
	if a.Addr == b.Addr {
		t.Error("two segments share an address")
	}
}

func TestPages(t *testing.T) {
	h := newHost(t)
	page := h.PageSize.Int64()
	addr, err := h.Alloc(3 * page)
	if err != nil {
		t.Fatal(err)
	}
	if got := mem.PageCount(addr, 3*page, page); got < 3 || got > 4 {
		t.Errorf("PageCount(3 pages) = %d", got)
	}
	if got := mem.PageCount(addr, 1, page); got != 1 {
		t.Errorf("PageCount(1 byte) = %d, want 1", got)
	}
	// 4 KiB pages see 512× more translation work than 2 MiB pages — the
	// mechanism behind the huge-page ablation.
	h4k, err := New("vh4k", 256*units.MiB, 4*units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	a4k, err := h4k.Alloc(2 * units.MiB.Int64())
	if err != nil {
		t.Fatal(err)
	}
	if got := mem.PageCount(a4k, 2*units.MiB.Int64(), h4k.PageSize.Int64()); got < 512 {
		t.Errorf("4KiB pages for 2MiB = %d, want >= 512", got)
	}
}

func TestAllocExhaustion(t *testing.T) {
	h, err := New("small", 1*units.MiB, 4*units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Alloc(2 * units.MiB.Int64()); err == nil {
		t.Error("over-capacity alloc should fail")
	}
}

// TestAllocBytes: the caller's bytes are host memory at the address Alloc
// would have returned, for as long as the allocation lives, and no longer.
func TestAllocBytes(t *testing.T) {
	h := newHost(t)
	probe, err := h.Alloc(1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Free(probe); err != nil {
		t.Fatal(err)
	}
	data := []byte("user data already lives in VH memory")
	addr, err := h.AllocBytes(data)
	if err != nil || addr != probe {
		t.Fatalf("AllocBytes = %#x, %v; Alloc returned %#x for the same heap", addr, err, probe)
	}
	got := make([]byte, len(data))
	if err := h.ReadAt(got, addr); err != nil || string(got) != string(data) {
		t.Fatalf("host memory at the allocation reads %q, %v", got, err)
	}
	if err := h.WriteAt([]byte("USER"), addr); err != nil || string(data[:4]) != "USER" {
		t.Fatalf("a store to host memory did not reach the caller's bytes: %q, %v", data[:9], err)
	}
	if h.LiveAllocs() != 1 || !h.Mapped(addr, int64(len(data))) {
		t.Errorf("%d live allocations, mapped %v", h.LiveAllocs(), h.Mapped(addr, int64(len(data))))
	}
	if err := h.Free(addr); err != nil {
		t.Fatal(err)
	}
	if h.LiveAllocs() != 0 || h.Mapped(addr, 1) || h.ReadAt(got, addr) == nil {
		t.Errorf("after Free: %d live allocations, mapped %v", h.LiveAllocs(), h.Mapped(addr, 1))
	}
	if _, err := h.AllocBytes(nil); err == nil || h.LiveAllocs() != 0 {
		t.Errorf("AllocBytes of nothing: %v, %d live allocations", err, h.LiveAllocs())
	}
}

// TestShmRemoveKeepsSegmentOnFailure: a segment whose memory could not be
// freed is still there, so it must still be found by key.
func TestShmRemoveKeepsSegmentOnFailure(t *testing.T) {
	h := newHost(t)
	seg, err := h.ShmCreate(1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Unmap(seg.Addr); err != nil { // makes the Free inside ShmRemove fail
		t.Fatal(err)
	}
	if err := h.ShmRemove(seg.Key); err == nil {
		t.Fatal("ShmRemove succeeded though its Free cannot")
	}
	if got, err := h.ShmGet(seg.Key); err != nil || got != seg || h.LiveAllocs() != 1 {
		t.Errorf("after the failed ShmRemove: ShmGet = %v, %v, %d live allocations", got, err, h.LiveAllocs())
	}
}
