package mem

import (
	"bytes"
	"fmt"
	"runtime"
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

func TestView(t *testing.T) {
	m := NewMemory("test")
	if err := m.Map(0, 100); err != nil {
		t.Fatal(err)
	}
	s, err := m.View(10, 20)
	if err != nil {
		t.Fatalf("View: %v", err)
	}
	if len(s) != 20 || cap(s) != 20 {
		t.Errorf("View(10, 20) has len %d cap %d: it must not reach past its range", len(s), cap(s))
	}
	copy(s, "direct view works!")
	got := make([]byte, 18)
	if err := m.ReadAt(got, 10); err != nil {
		t.Fatal(err)
	}
	if string(got) != "direct view works!" {
		t.Fatalf("got %q", got)
	}
	if s, err := m.View(5000, 0); err != nil || len(s) != 0 {
		t.Errorf("View of no bytes = %v, %v; like ReadAt of none it touches nothing", s, err)
	}
}

// TestViewFaults: a view that cannot be one slice of one extent fails, with
// the text a ReadAt of the range gives wherever ReadAt fails too, and makes
// nothing resident.
func TestViewFaults(t *testing.T) {
	m := NewMemory("test")
	for _, e := range [][2]int64{{0x1000, 100}, {0x1000 + 100, 50}, {0x3000, 64}} { // two adjacent, one apart
		if err := m.Map(Addr(e[0]), e[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name string
		addr Addr
		n    int64
		want string // "" = what ReadAt says
	}{
		{"past the extent's end into a gap", 0x3000 + 60, 8, ""},
		{"unmapped", 0x2000, 1, ""},
		{"just below an extent", 0x2fff, 2, ""},
		{"wrapping the address space", ^Addr(0) - 3, 8, ""},
		{"spanning two adjacent extents", 0x1000 + 90, 20, "mem test: View [0x105a,+20) crosses the extent boundary at 0x1064"},
		{"negative length", 0x1000, -1, "mem test: access [0x1000,+-1) wraps the address space"},
	} {
		want := c.want
		if want == "" {
			err := m.ReadAt(make([]byte, c.n), c.addr)
			if err == nil {
				t.Fatalf("%s: ReadAt succeeds", c.name)
			}
			want = err.Error()
		}
		if s, err := m.View(c.addr, c.n); err == nil || err.Error() != want || s != nil {
			t.Errorf("%s: View = %d bytes, %v; want the error %q", c.name, len(s), err, want)
		}
	}
	if got := m.ResidentBytes(); got != 0 {
		t.Errorf("failed views made %d bytes resident", got)
	}
}

// TestViewIsTheMemory: the first view of an extent keeps what its chunks
// held (untouched ones read zero), and from then on the views — taken
// before and after each other, across chunk boundaries — and ReadAt,
// WriteAt and Copy (every simulated DMA is one) all work on one storage,
// in both directions.
func TestViewIsTheMemory(t *testing.T) {
	const base, size = Addr(0x40_0000 + 64), 3*ChunkSize + 1000
	m := NewMemory("test")
	if err := m.Map(base, size); err != nil {
		t.Fatal(err)
	}
	if err := m.Map(base+size, 64); err != nil { // a neighbour that is never viewed
		t.Fatal(err)
	}
	ref := make([]byte, size) // what the extent must hold

	for _, at := range []int{5, ChunkSize - 3, 3*ChunkSize + 990} { // chunk 1 stays untouched
		b := genStream(uint64(at), 10)
		copy(ref[at:], b)
		if err := m.WriteAt(b, base+Addr(at)); err != nil {
			t.Fatal(err)
		}
	}
	same := func(after string, views ...[]byte) {
		t.Helper()
		got := make([]byte, size)
		if err := m.ReadAt(got, base); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, ref) {
			t.Fatalf("after %s: ReadAt differs from the reference", after)
		}
		for i, v := range views {
			if !bytes.Equal(v, ref[len(ref)-len(v):]) && !bytes.Equal(v, ref[:len(v)]) {
				t.Fatalf("after %s: view %d is detached from the extent", after, i)
			}
		}
	}
	if got := m.ResidentBytes(); got != 2*ChunkSize+1000 {
		t.Fatalf("%d bytes resident before the first view, want three chunks' worth", got)
	}
	early, err := m.View(base, ChunkSize+100) // from the start, over a boundary
	if err != nil {
		t.Fatal(err)
	}
	if got := m.ResidentBytes(); got != size {
		t.Errorf("%d bytes resident after the first view, want the whole extent (%d) and none of its neighbour", got, size)
	}
	same("flattening", early)

	copy(early[ChunkSize-2:], "over the boundary") // view → memory
	copy(ref[ChunkSize-2:], "over the boundary")
	same("a store through the view", early)

	late, err := m.View(base+ChunkSize-7, size-(ChunkSize-7)) // to the end, overlapping early
	if err != nil {
		t.Fatal(err)
	}
	stamp := genStream(7, 2*ChunkSize)
	if err := m.WriteAt(stamp, base+100); err != nil { // memory → both views
		t.Fatal(err)
	}
	copy(ref[100:], stamp)
	same("WriteAt under two views", early, late)

	other := NewMemory("other")
	if err := other.MapBytes(0, genStream(8, ChunkSize+9)); err != nil {
		t.Fatal(err)
	}
	if err := Copy(m, base+2*ChunkSize-4, other, 0, ChunkSize+9); err != nil { // a DMA in
		t.Fatal(err)
	}
	copy(ref[2*ChunkSize-4:], genStream(8, ChunkSize+9))
	same("Copy in", early, late)

	late[len(late)-1] ^= 0xFF // view → a DMA out
	ref[size-1] ^= 0xFF
	out := make([]byte, 16)
	if err := other.MapBytes(0x10_0000, out); err != nil {
		t.Fatal(err)
	}
	if err := Copy(other, 0x10_0000, m, base+size-16, 16); err != nil || !bytes.Equal(out, ref[size-16:]) {
		t.Errorf("Copy out of a viewed extent: %v, the view's store arrived: %v", err, bytes.Equal(out, ref[size-16:]))
	}
	if err := Copy(m, base+10, m, base, 2*ChunkSize); err != nil { // memmove within the extent
		t.Fatal(err)
	}
	copy(ref[10:], ref[:2*ChunkSize])
	same("an overlapping Copy", early, late)

	if err := m.Unmap(base); err != nil {
		t.Fatal(err)
	}
	if got := m.ResidentBytes(); got != 0 {
		t.Errorf("%d bytes resident after Unmap: the array is still held", got)
	}
}

// TestBulkStoreBacksExtentOnce: a store that reaches an untouched chunk backs
// the whole extent with one array when its bytes from there on cover at least
// half of the extent, or the extent is one chunk; otherwise it backs that
// chunk alone. Through WriteAt and through Copy alike, each extent is judged
// on its own share of the range, what chunks touched earlier held is carried
// into the array, and the first View of an extent made one array allocates
// nothing (of one left chunk-lazy, exactly its array).
func TestBulkStoreBacksExtentOnce(t *testing.T) {
	const C = ChunkSize
	type span struct{ at, n int64 }
	cases := []struct {
		name     string
		extents  []span // mapped at their addresses
		earlier  []int64
		store    span
		resident int64
		flat     []bool // per extent, after the store
	}{
		{"exactly half", []span{{0, 4 * C}}, []int64{3*C + 100}, span{0, 2 * C}, 4 * C, []bool{true}},
		{"one byte short of half", []span{{0, 4 * C}}, []int64{3*C + 100}, span{0, 2*C - 1}, 3 * C, []bool{false}},
		{"from mid-extent to its end", []span{{0, 3*C + 1000}}, []int64{100}, span{C + 500, 2*C + 500}, 3*C + 1000, []bool{true}},
		{"into the next extent, the second's half", []span{{0, 4 * C}, {4 * C, 4 * C}}, []int64{100, 7*C + 100},
			span{3 * C, 3 * C}, 2*C + 4*C, []bool{false, true}},
		{"into the next extent, the first's three quarters", []span{{0, 4 * C}, {4 * C, 4 * C}}, []int64{100, 7*C + 100},
			span{C, 4 * C}, 4*C + 2*C, []bool{true, false}},
		{"8 bytes into a one-chunk extent", []span{{0, 1000}, {C, 2 * C}}, []int64{C + 100}, span{64, 8}, 1000 + C, []bool{true, false}},
	}
	const srcAt = Addr(0x7f00_0000_0000)
	for _, via := range []string{"WriteAt", "Copy"} {
		for _, c := range cases {
			name := via + ", " + c.name
			m := NewMemory("test")
			var space int64
			for _, e := range c.extents {
				if err := m.Map(Addr(e.at), e.n); err != nil {
					t.Fatal(err)
				}
				space = max(space, e.at+e.n)
			}
			ref := make([]byte, space)
			for i, at := range c.earlier {
				b := genStream(uint64(i+1), 16)
				copy(ref[at:], b)
				if err := m.WriteAt(b, Addr(at)); err != nil {
					t.Fatal(err)
				}
			}
			data := genStream(9, int(c.store.n))
			copy(ref[c.store.at:], data)
			var err error
			if via == "WriteAt" {
				err = m.WriteAt(data, Addr(c.store.at))
			} else {
				src := NewMemory("src")
				if err := src.MapBytes(srcAt, data); err != nil {
					t.Fatal(err)
				}
				err = Copy(m, Addr(c.store.at), src, srcAt, c.store.n)
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checkBacked(t, name, m, ref, c.resident, c.flat)
		}
	}

	// A Copy within one extent whose destination flattens it: the source's
	// chunks become windows onto the new array while the copy reads them.
	m := NewMemory("test")
	if err := m.Map(0, 4*C); err != nil {
		t.Fatal(err)
	}
	ref := make([]byte, 4*C)
	for i, at := range []int64{0, C} { // two stores of one chunk each stay lazy
		b := genStream(uint64(i+1), C)
		copy(ref[at:], b)
		if err := m.WriteAt(b, Addr(at)); err != nil {
			t.Fatal(err)
		}
	}
	if err := Copy(m, 2*C, m, 0, 2*C); err != nil {
		t.Fatal(err)
	}
	copy(ref[2*C:], ref[:2*C])
	checkBacked(t, "Copy within the extent", m, ref, 4*C, []bool{true})
}

// checkBacked holds m's extents to ref, which spans them from address 0:
// resident bytes, the bytes ReadAt and a first View read, and what that
// first View allocates — nothing where flat says the extent is one array.
func checkBacked(t *testing.T, name string, m *Memory, ref []byte, resident int64, flat []bool) {
	t.Helper()
	if got := m.ResidentBytes(); got != resident {
		t.Errorf("%s: %d bytes resident, want %d", name, got, resident)
	}
	for i, e := range m.extents {
		want := ref[e.addr:e.end()]
		got := make([]byte, e.size)
		if err := m.ReadAt(got, e.addr); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: extent %d reads back: %v, bytes equal %v", name, i, err, bytes.Equal(got, want))
		}
		var v []byte
		wantAllocs := uint64(1) // chunk-lazy: the first view makes the array
		if flat[i] {
			wantAllocs = 0
		}
		if n := firstCallAllocs(func() { v, _ = m.View(e.addr, e.size) }); n != wantAllocs {
			t.Errorf("%s: the first View of extent %d allocates %d times, want %d", name, i, n, wantAllocs)
		}
		if !bytes.Equal(v, want) {
			t.Errorf("%s: the first View of extent %d differs from what was stored", name, i)
		}
	}
}

// firstCallAllocs counts the heap objects one call of f allocates. Unlike
// testing.AllocsPerRun it makes no warm-up call, which would do the
// flattening a first View does.
func firstCallAllocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestViewOfMapBytes: an extent mapped over a caller's bytes is a view
// already — View hands back the caller's slice and allocates nothing.
func TestViewOfMapBytes(t *testing.T) {
	data := genStream(3, 2*ChunkSize+50)
	m := NewMemory("test")
	if err := m.MapBytes(0x1000, data); err != nil {
		t.Fatal(err)
	}
	var v []byte
	if n := testing.AllocsPerRun(10, func() { v, _ = m.View(0x1000+ChunkSize-1, ChunkSize+51) }); n != 0 {
		t.Errorf("View of a MapBytes extent allocates %v times", n)
	}
	if len(v) != ChunkSize+51 || &v[0] != &data[ChunkSize-1] {
		t.Errorf("View of a MapBytes extent is not the caller's slice")
	}
}

// TestDiscard: every extent — chunk-backed, viewed, mapped over a caller's
// bytes — lets go of its storage and reads as zero, still mapped; earlier
// views are detached, a new one is backed afresh.
func TestDiscard(t *testing.T) {
	m := NewMemory("test")
	data := genStream(1, 100)
	kept := bytes.Clone(data)
	if err := m.Map(0, 2*ChunkSize); err != nil {
		t.Fatal(err)
	}
	if err := m.Map(0x10_0000, 3*ChunkSize); err != nil {
		t.Fatal(err)
	}
	if err := m.MapBytes(0x20_0000, data); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteAt(genStream(2, 50), ChunkSize-25); err != nil {
		t.Fatal(err)
	}
	old, err := m.View(0x10_0000+5, 2*ChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	old[0] = 9
	m.Discard()
	if got := m.ResidentBytes(); got != 0 {
		t.Errorf("%d bytes resident after Discard", got)
	}
	if got := m.MappedBytes(); got != 5*ChunkSize+100 {
		t.Errorf("%d bytes mapped after Discard, want all of them", got)
	}
	for _, r := range [][2]int64{{0, 2 * ChunkSize}, {0x10_0000, 3 * ChunkSize}, {0x20_0000, 100}} {
		got := make([]byte, r[1])
		if err := m.ReadAt(got, Addr(r[0])); err != nil || !bytes.Equal(got, make([]byte, r[1])) {
			t.Errorf("extent at %#x after Discard: %v, reads zero: %v", r[0], err, err == nil)
		}
	}
	fresh, err := m.View(0x10_0000+5, 8)
	if err != nil || fresh[0] != 0 || &fresh[0] == &old[0] {
		t.Errorf("a view after Discard: %v, % x; it must be zeroed storage of its own", err, fresh)
	}
	if old[0] != 9 || !bytes.Equal(data, kept) {
		t.Errorf("Discard wrote to storage it let go of")
	}
}

// TestWord: a resolved Word loads what ReadUint64 of its address reads —
// the value or the very fault — through every change of the memory under
// it: a store, a flatten by View, Discard, Unmap, MapBytes at the same
// address, a Map under a word that was unmapped when resolved. A word across
// a chunk boundary or an extent's end is ReadUint64 on every Load, and a
// resolved one loads without allocating.
func TestWord(t *testing.T) {
	const base = Addr(0x10_0000)
	m := NewMemory("test")
	if err := m.Map(base, 2*ChunkSize); err != nil {
		t.Fatal(err)
	}
	if err := m.Map(base+2*ChunkSize, 64); err != nil { // adjacent
		t.Fatal(err)
	}
	addrs := []Addr{
		base, base + 8, base + ChunkSize, base + 2*ChunkSize + 56, // resolved
		base + ChunkSize - 4, base + 2*ChunkSize - 4, base + 2*ChunkSize + 60, 0x50, // ReadUint64
	}
	words := make([]Word, len(addrs))
	for i, a := range addrs {
		if words[i] = m.WordAt(a); (words[i].e != nil) != (i < 4) {
			t.Errorf("the word at %#x resolved to an extent: %v, want %v", a, words[i].e != nil, i < 4)
		}
	}
	same := func(after string) {
		t.Helper()
		for i, a := range addrs {
			want, wantErr := m.ReadUint64(a)
			if got, err := words[i].Load(); got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Errorf("after %s: the word at %#x loads %#x, %v; ReadUint64 %#x, %v", after, a, got, err, want, wantErr)
			}
		}
	}
	fill := func(seed uint64) {
		t.Helper()
		if err := m.WriteAt(genStream(seed, 2*ChunkSize+64), base); err != nil {
			t.Fatal(err)
		}
	}
	same("resolving")
	fill(1)
	same("a store")
	if n := testing.AllocsPerRun(100, func() { _, _ = words[0].Load() }); n != 0 {
		t.Errorf("a resolved Load allocates %v times", n)
	}
	if _, err := m.View(base+8, 16); err != nil {
		t.Fatal(err)
	}
	same("a View flattened the extent")
	fill(2)
	same("a store to the flattened extent")
	m.Discard()
	same("Discard")
	fill(3)
	same("a store after Discard")
	if err := m.Unmap(base); err != nil {
		t.Fatal(err)
	}
	same("Unmap")
	data := genStream(4, 2*ChunkSize)
	if err := m.MapBytes(base, data); err != nil {
		t.Fatal(err)
	}
	same("MapBytes at the same address")
	data[ChunkSize] ^= 0xFF
	same("a store to the mapped bytes")
	if err := m.Map(0x40, 64); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteUint64(0x50, 7); err != nil {
		t.Fatal(err)
	}
	same("a Map under a word unmapped when resolved")
}

// genStream returns n bytes of a fixed pseudo-random stream.
func genStream(seed uint64, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		seed = seed*6364136223846793005 + 1442695040888963407
		out[i] = byte(seed >> 56)
	}
	return out
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
// (overlapping or not). In the second layout ranges run between two extents
// of four chunks, where only a decision on the whole rest of the range, not
// one per source piece, makes what WriteAt makes resident.
func TestCopyMatchesBounceReference(t *testing.T) {
	for _, l := range []struct {
		name    string
		extents [][2]int64
		touched []int64 // 300-byte stores, so some chunks stay unbacked
		space   int64
		rounds  int
	}{
		// Two adjacent extents, a gap, a third: [0,2C) [2C,3C) gap [3.5C,5C).
		{"small extents", [][2]int64{{0, 2 * ChunkSize}, {2 * ChunkSize, ChunkSize}, {3*ChunkSize + ChunkSize/2, ChunkSize + ChunkSize/2}},
			[]int64{100, ChunkSize - 50, 2*ChunkSize + 7, 4 * ChunkSize}, 5 * ChunkSize, 400},
		// Two adjacent extents of four chunks: [0,4C) [4C,8C).
		{"four-chunk extents", [][2]int64{{0, 4 * ChunkSize}, {4 * ChunkSize, 4 * ChunkSize}},
			[]int64{2*ChunkSize + 100, 5*ChunkSize + 7}, 8 * ChunkSize, 150},
	} {
		copyMatchesBounce(t, l.name, l.extents, l.touched, l.space, l.rounds)
	}
}

func copyMatchesBounce(t *testing.T, layout string, extents [][2]int64, touched []int64, space int64, rounds int) {
	build := func(seed uint64) *Memory {
		m := NewMemory("m")
		for _, e := range extents {
			if err := m.Map(Addr(e[0]), e[1]); err != nil {
				t.Fatal(err)
			}
		}
		x := seed
		for _, at := range touched {
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
	for round := 0; round < rounds; round++ {
		same := round%3 == 0
		srcA, srcB := build(1), build(1)
		dstA, dstB := srcA, srcB
		if !same {
			dstA, dstB = build(2), build(2)
		}
		n := draw(3 * space / 5)
		if round%4 == 0 {
			n = draw(600) // message-sized
		}
		srcAddr, dstAddr := Addr(draw(space)), Addr(draw(space))
		errA := Copy(dstA, dstAddr, srcA, srcAddr, n)
		errB := bounce(dstB, dstAddr, srcB, srcAddr, n)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%s, round %d: Copy(%#x <- %#x, %d) = %v, reference %v", layout, round, dstAddr, srcAddr, n, errA, errB)
		}
		if errA != nil {
			if errA.Error() != errB.Error() {
				t.Fatalf("%s, round %d: Copy fails with %q, reference with %q", layout, round, errA, errB)
			}
			continue
		}
		if !bytes.Equal(dump(dstA), dump(dstB)) {
			t.Fatalf("%s, round %d: Copy(%#x <- %#x, %d, same memory %v) left different bytes than the reference",
				layout, round, dstAddr, srcAddr, n, same)
		}
		if a, b := dstA.ResidentBytes(), dstB.ResidentBytes(); a != b {
			t.Fatalf("%s, round %d: Copy made %d bytes resident, reference %d", layout, round, a, b)
		}
	}
}

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

// TestMapBytes holds an extent mapped over a caller's bytes to an ordinary
// one holding a copy of them: every load, store, Copy and View agrees, the
// caller's slice is the storage (stores show up in it, at once), and Unmap
// ends the alias without touching the bytes.
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

		view, err := m.View(base+Addr(size-1), 1)
		if err != nil {
			t.Fatal(err)
		}
		view[0] ^= 0xFF
		if err := ref.WriteAt(view, base+Addr(size-1)); err != nil {
			t.Fatal(err)
		}
		same("a store through View")

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
