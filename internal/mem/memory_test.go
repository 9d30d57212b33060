package mem

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestMapReadWrite(t *testing.T) {
	m := NewMemory("test")
	if err := m.Map(0x1000, 256); err != nil {
		t.Fatalf("Map: %v", err)
	}
	data := []byte("hello, vector engine")
	if err := m.WriteAt(data, 0x1010); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	got := make([]byte, len(data))
	if err := m.ReadAt(got, 0x1010); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q, want %q", got, data)
	}
}

func TestMapZeroFilled(t *testing.T) {
	m := NewMemory("test")
	if err := m.Map(0, 64); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 64)
	for i := range got {
		got[i] = 0xff
	}
	if err := m.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, b)
		}
	}
}

func TestMapOverlapRejected(t *testing.T) {
	m := NewMemory("test")
	if err := m.Map(100, 100); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		addr Addr
		size int64
	}{
		{100, 100}, {150, 10}, {50, 60}, {199, 2}, {0, 300},
	} {
		if err := m.Map(c.addr, c.size); err == nil {
			t.Errorf("Map(%#x,%d) should overlap", c.addr, c.size)
		}
	}
	// Adjacent is fine.
	if err := m.Map(200, 50); err != nil {
		t.Errorf("adjacent Map failed: %v", err)
	}
	if err := m.Map(0, 100); err != nil {
		t.Errorf("adjacent Map before failed: %v", err)
	}
}

func TestAccessSpansAdjacentExtents(t *testing.T) {
	m := NewMemory("test")
	if err := m.Map(0, 10); err != nil {
		t.Fatal(err)
	}
	if err := m.Map(10, 10); err != nil {
		t.Fatal(err)
	}
	data := []byte("0123456789abcdefghij")
	if err := m.WriteAt(data, 0); err != nil {
		t.Fatalf("spanning WriteAt: %v", err)
	}
	got := make([]byte, 20)
	if err := m.ReadAt(got, 0); err != nil {
		t.Fatalf("spanning ReadAt: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q", got)
	}
}

func TestFaultOnUnmapped(t *testing.T) {
	m := NewMemory("test")
	if err := m.Map(0, 10); err != nil {
		t.Fatal(err)
	}
	if err := m.Map(20, 10); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 30)
	if err := m.ReadAt(buf, 0); err == nil {
		t.Error("read across gap should fault")
	}
	if err := m.WriteAt(buf[:5], 28); err == nil {
		t.Error("write past extent should fault")
	}
	if err := m.ReadAt(buf[:1], 1000); err == nil {
		t.Error("read of unmapped should fault")
	}
}

func TestUnmap(t *testing.T) {
	m := NewMemory("test")
	if err := m.Map(0x100, 16); err != nil {
		t.Fatal(err)
	}
	if err := m.Unmap(0x100); err != nil {
		t.Fatalf("Unmap: %v", err)
	}
	if err := m.ReadAt(make([]byte, 1), 0x100); err == nil {
		t.Error("read after Unmap should fault")
	}
	if err := m.Unmap(0x100); err == nil {
		t.Error("double Unmap should fail")
	}
	if err := m.Unmap(0x50); err == nil {
		t.Error("Unmap of never-mapped addr should fail")
	}
}

func TestMapped(t *testing.T) {
	m := NewMemory("test")
	if err := m.Map(10, 10); err != nil {
		t.Fatal(err)
	}
	if err := m.Map(20, 10); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		addr Addr
		size int64
		want bool
	}{
		{10, 20, true}, {10, 10, true}, {15, 10, true},
		{9, 2, false}, {29, 2, false}, {0, 5, false}, {12, 0, true},
	}
	for _, c := range cases {
		if got := m.Mapped(c.addr, c.size); got != c.want {
			t.Errorf("Mapped(%d,%d) = %v, want %v", c.addr, c.size, got, c.want)
		}
	}
}

func TestSlice(t *testing.T) {
	m := NewMemory("test")
	if err := m.Map(0, 100); err != nil {
		t.Fatal(err)
	}
	s, err := m.Slice(10, 20)
	if err != nil {
		t.Fatalf("Slice: %v", err)
	}
	copy(s, "direct view works!")
	got := make([]byte, 18)
	if err := m.ReadAt(got, 10); err != nil {
		t.Fatal(err)
	}
	if string(got) != "direct view works!" {
		t.Fatalf("got %q", got)
	}
	if _, err := m.Slice(90, 20); err == nil {
		t.Error("Slice past extent should fail")
	}
	if _, err := m.Slice(200, 1); err == nil {
		t.Error("Slice of unmapped should fail")
	}
}

func TestCopyBetweenMemories(t *testing.T) {
	src := NewMemory("src")
	dst := NewMemory("dst")
	if err := src.Map(0, 64); err != nil {
		t.Fatal(err)
	}
	if err := dst.Map(0x8000, 64); err != nil {
		t.Fatal(err)
	}
	if err := src.WriteAt([]byte("payload"), 8); err != nil {
		t.Fatal(err)
	}
	if err := Copy(dst, 0x8010, src, 8, 7); err != nil {
		t.Fatalf("Copy: %v", err)
	}
	got := make([]byte, 7)
	if err := dst.ReadAt(got, 0x8010); err != nil {
		t.Fatal(err)
	}
	if string(got) != "payload" {
		t.Fatalf("got %q", got)
	}
}

func TestCopyOverlappingSameMemory(t *testing.T) {
	m := NewMemory("m")
	if err := m.Map(0, 32); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteAt([]byte("abcdefgh"), 0); err != nil {
		t.Fatal(err)
	}
	if err := Copy(m, 2, m, 0, 8); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 10)
	if err := m.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != "ababcdefgh" {
		t.Fatalf("got %q, want %q", got, "ababcdefgh")
	}
}

func TestPageCount(t *testing.T) {
	cases := []struct {
		addr Addr
		n    int64
		page int64
		want int64
	}{
		{0, 1, 4096, 1},
		{0, 4096, 4096, 1},
		{0, 4097, 4096, 2},
		{4095, 2, 4096, 2},
		{4096, 4096, 4096, 1},
		{0, 0, 4096, 0},
		{1 << 21, 1 << 21, 1 << 21, 1},
		{100, 1 << 21, 1 << 21, 2},
	}
	for _, c := range cases {
		if got := PageCount(c.addr, c.n, c.page); got != c.want {
			t.Errorf("PageCount(%d,%d,%d) = %d, want %d", c.addr, c.n, c.page, got, c.want)
		}
	}
}

// Property: a write followed by a read of the same range always round-trips,
// for arbitrary offsets and lengths within a mapped extent.
func TestReadWriteRoundTripProperty(t *testing.T) {
	m := NewMemory("prop")
	const size = 1 << 16
	if err := m.Map(0x4000, size); err != nil {
		t.Fatal(err)
	}
	f := func(off uint16, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		addr := Addr(0x4000 + int64(off)%(size-int64(len(data))))
		if err := m.WriteAt(data, addr); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if err := m.ReadAt(got, addr); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestCopyStreamingLarge covers the chunked path of Copy, including both
// overlap directions within one memory.
func TestCopyStreamingLarge(t *testing.T) {
	const n = 3*ChunkSize + 123 // forces the streaming path
	m := NewMemory("big")
	if err := m.Map(0, 8*ChunkSize); err != nil {
		t.Fatal(err)
	}
	src := make([]byte, n)
	for i := range src {
		src[i] = byte(i * 7)
	}
	if err := m.WriteAt(src, 0); err != nil {
		t.Fatal(err)
	}
	// Forward overlap (dst > src): must behave like memmove.
	if err := Copy(m, 1000, m, 0, n); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, n)
	if err := m.ReadAt(got, 1000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, src) {
		t.Fatal("forward-overlap streamed copy corrupted data")
	}
	// Backward overlap (dst < src).
	if err := m.WriteAt(src, 1000); err != nil {
		t.Fatal(err)
	}
	if err := Copy(m, 500, m, 1000, n); err != nil {
		t.Fatal(err)
	}
	if err := m.ReadAt(got, 500); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, src) {
		t.Fatal("backward-overlap streamed copy corrupted data")
	}
	// Cross-memory large copy.
	d := NewMemory("dst")
	if err := d.Map(0, 8*ChunkSize); err != nil {
		t.Fatal(err)
	}
	if err := Copy(d, 64, m, 500, n); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadAt(got, 64); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, src) {
		t.Fatal("cross-memory streamed copy corrupted data")
	}
}

// TestCopyMatchesBounceReference holds the piece-by-piece Copy to what a
// copy through one whole-range buffer does — the same bytes everywhere in
// the destination, the same chunks made resident, the same faults — over
// layouts with several extents, untouched source chunks and ranges that
// start and end off chunk boundaries, between two memories and within one
// (overlapping or not).
func TestCopyMatchesBounceReference(t *testing.T) {
	const space = 5 * ChunkSize
	build := func(seed uint64) *Memory {
		m := NewMemory("m")
		// Two adjacent extents, a gap, a third: [0,2C) [2C,3C) gap [3.5C,5C).
		for _, e := range [][2]int64{{0, 2 * ChunkSize}, {2 * ChunkSize, ChunkSize}, {3*ChunkSize + ChunkSize/2, ChunkSize + ChunkSize/2}} {
			if err := m.Map(Addr(e[0]), e[1]); err != nil {
				t.Fatal(err)
			}
		}
		// Touch some ranges only, so some chunks stay unbacked.
		x := seed
		for _, at := range []int64{100, ChunkSize - 50, 2*ChunkSize + 7, 4 * ChunkSize} {
			b := make([]byte, 300)
			for i := range b {
				x = x*6364136223846793005 + 1442695040888963407
				b[i] = byte(x >> 56)
			}
			if err := m.WriteAt(b, Addr(at)); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	bounce := func(dst *Memory, dstAddr Addr, src *Memory, srcAddr Addr, n int64) error {
		buf := make([]byte, n)
		if err := src.ReadAt(buf, srcAddr); err != nil {
			return err
		}
		return dst.WriteAt(buf, dstAddr)
	}
	dump := func(m *Memory) []byte {
		out := make([]byte, 0, space)
		for _, e := range m.extents {
			b := make([]byte, e.size)
			if err := m.ReadAt(b, e.addr); err != nil {
				t.Fatal(err)
			}
			out = append(out, b...)
		}
		return out
	}
	x := uint64(99)
	draw := func(n int64) int64 {
		x = x*6364136223846793005 + 1442695040888963407
		return int64(x>>33) % n
	}
	for round := 0; round < 400; round++ {
		same := round%3 == 0
		srcA, srcB := build(1), build(1)
		dstA, dstB := srcA, srcB
		if !same {
			dstA, dstB = build(2), build(2)
		}
		n := draw(3 * ChunkSize)
		if round%4 == 0 {
			n = draw(600) // message-sized
		}
		srcAddr, dstAddr := Addr(draw(space)), Addr(draw(space))
		errA := Copy(dstA, dstAddr, srcA, srcAddr, n)
		errB := bounce(dstB, dstAddr, srcB, srcAddr, n)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("round %d: Copy(%#x <- %#x, %d) = %v, reference %v", round, dstAddr, srcAddr, n, errA, errB)
		}
		if errA != nil {
			if errA.Error() != errB.Error() {
				t.Fatalf("round %d: Copy fails with %q, reference with %q", round, errA, errB)
			}
			continue
		}
		if !bytes.Equal(dump(dstA), dump(dstB)) {
			t.Fatalf("round %d: Copy(%#x <- %#x, %d, same memory %v) left different bytes than the reference",
				round, dstAddr, srcAddr, n, same)
		}
		if a, b := dstA.ResidentBytes(), dstB.ResidentBytes(); a != b {
			t.Fatalf("round %d: Copy made %d bytes resident, reference %d", round, a, b)
		}
	}
}

// TestMapBytes holds an extent mapped over a caller's bytes to an ordinary
// one holding a copy of them: every load, store, Copy and Slice agrees, the
// caller's slice is the storage (stores show up in it, at once), and Unmap
// ends the alias without touching the bytes.
// Unmap lets go of the backing store: bulk transfers map the caller's own
// slices for the length of one call (hostmem.AllocBytes), and a stale pointer
// left in the vacated slot of the extent table would keep the last of them
// reachable for as long as the Memory lives.
func TestUnmapLetsGoOfBacking(t *testing.T) {
	m := NewMemory("unmap")
	for i := range 3 {
		if err := m.MapBytes(Addr(0x1000*(i+1)), make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	for _, addr := range []Addr{0x3000, 0x1000, 0x2000} { // the last, the first, the only one
		if err := m.Unmap(addr); err != nil {
			t.Fatal(err)
		}
		for i, e := range m.extents[:cap(m.extents)][len(m.extents):] {
			if e != nil {
				t.Errorf("after Unmap(%#x): vacated slot %d still points at the extent at %#x", addr, len(m.extents)+i, e.addr)
			}
		}
	}
}

func TestMapBytes(t *testing.T) {
	const base = Addr(0x40_0000 + 24) // chunk windows are relative to the extent, not the address
	for _, size := range []int{1, 100, ChunkSize - 1, ChunkSize, ChunkSize + 1, 3*ChunkSize + 17} {
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(i*13 + i>>8)
		}
		m, ref := NewMemory("alias"), NewMemory("copy")
		if err := m.MapBytes(base, data); err != nil {
			t.Fatal(err)
		}
		if err := ref.Map(base, int64(size)); err != nil {
			t.Fatal(err)
		}
		if err := ref.WriteAt(data, base); err != nil {
			t.Fatal(err)
		}
		same := func(after string) {
			t.Helper()
			got, want := make([]byte, size), make([]byte, size)
			if err := m.ReadAt(got, base); err != nil {
				t.Fatal(err)
			}
			if err := ref.ReadAt(want, base); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) || !bytes.Equal(data, want) {
				t.Fatalf("size %d, after %s: alias reads like the copy: %v; caller's slice holds it: %v",
					size, after, bytes.Equal(got, want), bytes.Equal(data, want))
			}
		}
		same("MapBytes")

		other := NewMemory("other")
		if err := other.Map(0, int64(size)); err != nil {
			t.Fatal(err)
		}
		stamp := bytes.Repeat([]byte{0xC3}, size)
		if err := other.WriteAt(stamp, 0); err != nil {
			t.Fatal(err)
		}
		for _, r := range [][2]int{{0, 1}, {size / 2, size - size/2}, {max(0, ChunkSize-3), min(6, size-max(0, ChunkSize-3))}} {
			off, n := r[0], r[1]
			if off >= size || n <= 0 {
				continue
			}
			for _, mm := range []*Memory{m, ref} {
				if err := mm.WriteAt(stamp[:n], base+Addr(off)); err != nil {
					t.Fatal(err)
				}
			}
			same("WriteAt")
			for _, mm := range []*Memory{m, ref} {
				if err := Copy(mm, base, other, Addr(off), int64(n)); err != nil {
					t.Fatal(err)
				}
			}
			same("Copy in")
		}
		out := NewMemory("out")
		if err := out.Map(0, int64(size)); err != nil {
			t.Fatal(err)
		}
		if err := Copy(out, 0, m, base, int64(size)); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, size)
		if err := out.ReadAt(got, 0); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("size %d: Copy out of the alias: %v, bytes equal %v", size, err, bytes.Equal(got, data))
		}

		view, err := m.Slice(base+Addr(size-1), 1)
		if err != nil {
			t.Fatal(err)
		}
		view[0] ^= 0xFF
		if err := ref.WriteAt(view, base+Addr(size-1)); err != nil {
			t.Fatal(err)
		}
		same("a store through Slice")

		if got := m.MappedBytes(); got != int64(size) {
			t.Errorf("size %d: MappedBytes = %d", size, got)
		}
		kept := bytes.Clone(data)
		if err := m.Unmap(base); err != nil {
			t.Fatal(err)
		}
		if m.MappedBytes() != 0 || m.ReadAt(got[:1], base) == nil {
			t.Errorf("size %d: the range is still mapped after Unmap", size)
		}
		if !bytes.Equal(data, kept) {
			t.Errorf("size %d: Unmap changed the caller's bytes", size)
		}
	}

	m := NewMemory("m")
	if err := m.MapBytes(base, nil); err == nil {
		t.Error("MapBytes of no bytes succeeded; Map of size 0 fails")
	}
	if err := m.Map(base, 64); err != nil {
		t.Fatal(err)
	}
	if err := m.MapBytes(base+8, make([]byte, 8)); err == nil || m.MappedBytes() != 64 {
		t.Errorf("MapBytes over an extent: %v, %d bytes mapped", err, m.MappedBytes())
	}
}
