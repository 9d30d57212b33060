package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"hamoffload/internal/mem"
)

// Put, Get, ReadLocal and WriteLocal move a []T as the bytes it already is
// (elemBytes, and bytesElems the other way). What those bytes must be is the
// codec the runtime used before: encoding/binary over a bytes.Buffer, one
// reflection walk per slice, in the build's own byte order — the order bulk
// elements have in simulated memory. It is kept here — and only here — as
// the oracle the in-place views are compared against, for every element kind.

func oracleEncode[T Elem](src []T) []byte {
	var buf bytes.Buffer
	if err := binary.Write(&buf, binary.NativeEndian, src); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func oracleDecode[T Elem](data []byte, dst []T) {
	if err := binary.Read(bytes.NewReader(data), binary.NativeEndian, dst); err != nil {
		panic(err)
	}
}

// kelvin is an element type that is not a predeclared one: Elem admits any
// type whose underlying type is.
type kelvin float64

// checkElemKind reads raw as elements of T with the oracle and checks both
// views against it — elemBytes as a source and as a destination, bytesElems
// over memory that holds raw — plus that each view is the storage it was
// made from and sizeOf is the encoded size.
func checkElemKind[T Elem](t *testing.T, raw []byte) {
	t.Helper()
	var zero T
	size := binary.Size(zero)
	if got := sizeOf[T](); got != int64(size) {
		t.Fatalf("%T: sizeOf = %d, binary.Size = %d", zero, got, size)
	}
	raw = raw[:len(raw)/size*size]
	n := len(raw) / size
	vals := make([]T, n)
	oracleDecode(raw, vals)

	if got := elemBytes(vals); !bytes.Equal(got, raw) || !bytes.Equal(got, oracleEncode(vals)) {
		t.Errorf("%T × %d: elemBytes differs from the encoding/binary image", zero, n)
	}
	for _, cut := range []int{1, n / 2} { // a view of a sub-slice starts at its first element
		if cut <= n && !bytes.Equal(elemBytes(vals[cut:]), raw[cut*size:]) {
			t.Errorf("%T × %d: elemBytes(vals[%d:]) is not the tail of the image", zero, n, cut)
		}
	}

	// As a destination: bytes stored through the view are the elements the
	// oracle decodes, and nothing outside the view moves.
	out := make([]T, n+2)
	copy(elemBytes(out[1:n+1]), raw)
	if !bytes.Equal(oracleEncode(out[1:n+1]), raw) {
		t.Errorf("%T × %d: elements filled through elemBytes differ from binary.Read's", zero, n)
	}
	if out[0] != 0 || out[n+1] != 0 {
		t.Errorf("%T × %d: filling the view wrote outside it", zero, n)
	}

	// The way back: bytes as elements, over an 8-aligned array at an element
	// offset, as ReadLocal sees a buffer. Under -race checkptr watches the
	// conversion.
	words := make([]uint64, 1+(len(raw)+7)/8)
	image := elemBytes(words)[size:][:len(raw)]
	copy(image, raw)
	back, err := bytesElems[T](image)
	if err != nil || len(back) != n || !bytes.Equal(oracleEncode(back), raw) {
		t.Errorf("%T × %d: bytesElems: %v, %d elements, or they differ from binary.Read's", zero, n, err, len(back))
	}
	if round := elemBytes(back); len(round) != len(image) || n > 0 && &round[0] != &image[0] {
		t.Errorf("%T × %d: elemBytes(bytesElems(b)) is not b", zero, n)
	}
	if size > 1 && n > 0 {
		if _, err := bytesElems[T](elemBytes(words)[1:][:size]); err == nil {
			t.Errorf("%T: bytesElems took memory one byte off an element boundary", zero)
		}
	}

	if n > 0 { // in place: a store through either view is a store to what it views
		elemBytes(vals)[0] ^= 0xFF
		if bytes.Equal(oracleEncode(vals), raw) {
			t.Errorf("%T: elemBytes is a copy, not the slice's own memory", zero)
		}
		back[0] = vals[0]
		if !bytes.Equal(image, oracleEncode(vals)) {
			t.Errorf("%T: bytesElems is a copy, not the bytes' own memory", zero)
		}
	}
}

func checkAllElemKinds(t *testing.T, raw []byte) {
	t.Helper()
	checkElemKind[int8](t, raw)
	checkElemKind[int16](t, raw)
	checkElemKind[int32](t, raw)
	checkElemKind[int64](t, raw)
	checkElemKind[uint8](t, raw)
	checkElemKind[uint16](t, raw)
	checkElemKind[uint32](t, raw)
	checkElemKind[uint64](t, raw)
	checkElemKind[float32](t, raw)
	checkElemKind[float64](t, raw)
	checkElemKind[kelvin](t, raw)
}

// elemSeeds are byte images worth starting from: −0, quiet and signalling
// NaNs with payloads, infinities, extremes of every integer width.
var elemSeeds = [][]byte{
	{},
	{0x80},
	{0, 0, 0, 0, 0, 0, 0, 0x80}, // −0.0 (and −0.0f in the upper half)
	{1, 0, 0, 0, 0, 0, 0xF0, 0x7F, 0xEF, 0xBE, 0xAD, 0xDE, 0, 0, 0xF8, 0xFF}, // sNaN, payload qNaN
	{1, 0, 0x80, 0x7F, 0x55, 0x55, 0xC5, 0xFF, 0, 0, 0x80, 0xFF},             // float32 sNaN, qNaN, −Inf
	bytes.Repeat([]byte{0xFF}, 24),
	{0, 0, 0, 0, 0, 0, 0, 0x80, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F},
}

// genBytes returns n bytes of a fixed pseudo-random stream (splitmix64).
func genBytes(seed uint64, n int) []byte {
	out := make([]byte, 0, n+8)
	for len(out) < n {
		seed += 0x9E3779B97F4A7C15
		z := seed
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		out = binary.LittleEndian.AppendUint64(out, z^z>>31)
	}
	return out[:n]
}

func TestElemBytesMatchesOracle(t *testing.T) {
	for _, raw := range elemSeeds {
		checkAllElemKinds(t, raw)
	}
	for i, n := range []int{1, 7, 8, 63, 64, 1000, 4096 + 5} {
		checkAllElemKinds(t, genBytes(uint64(i), n))
	}
}

// FuzzElemBytes explores the same comparison over arbitrary byte images.
func FuzzElemBytes(f *testing.F) {
	for _, raw := range elemSeeds {
		f.Add(raw)
	}
	f.Add(genBytes(99, 257))
	f.Fuzz(func(t *testing.T, raw []byte) { checkAllElemKinds(t, raw) })
}

// heapBackend is allocBackend with a memory: node 0 holds a Heap, and Put and
// Get reach it as a backend would, so the whole buffer API runs in-process.
type heapBackend struct {
	allocBackend
	heap *Heap
}

func (b *heapBackend) Memory() LocalMemory { return b.heap }
func (b *heapBackend) Put(_ NodeID, data []byte, dst uint64) error {
	return b.heap.WriteAt(data, mem.Addr(dst))
}
func (b *heapBackend) Get(_ NodeID, src uint64, dst []byte) error {
	return b.heap.ReadAt(dst, mem.Addr(src))
}

// checkBufferAPI drives Put, Get, ReadLocal, WriteLocal and Copy for element
// type T over raw and reads target memory back raw: every path must leave and
// find the encoding/binary image.
func checkBufferAPI[T Elem](t *testing.T, raw []byte) {
	t.Helper()
	var zero T
	size := int(sizeOf[T]())
	raw = raw[:len(raw)/size*size]
	n := int64(len(raw) / size)
	vals := make([]T, n)
	oracleDecode(raw, vals)

	heap, err := NewHeap("buffer-test", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(&heapBackend{heap: heap}, "buffer-test")
	alloc := func() BufferPtr[T] {
		addr, err := heap.Alloc((n + 3) * int64(size))
		if err != nil {
			t.Fatal(err)
		}
		return BufferPtr[T]{Node: 0, Addr: uint64(addr), Count: n + 3}
	}
	memory := func(b BufferPtr[T]) []byte {
		out := make([]byte, len(raw))
		if err := heap.ReadAt(out, mem.Addr(b.Addr)); err != nil {
			t.Fatal(err)
		}
		return out
	}
	buf := alloc()
	at3, err := buf.Offset(3)
	if err != nil {
		t.Fatal(err)
	}

	if err := Put(rt, vals, at3); err != nil || !bytes.Equal(memory(at3), raw) {
		t.Errorf("%T: Put: %v; target memory holds the oracle's image: %v", zero, err, bytes.Equal(memory(at3), raw))
	}
	got := make([]T, n)
	if err := Get(rt, at3, got); err != nil || !bytes.Equal(oracleEncode(got), raw) {
		t.Errorf("%T: Get: %v, or elements differ from the oracle's", zero, err)
	}
	local, err := ReadLocal(&rt.ctx, buf, 3, n)
	if err != nil || !bytes.Equal(oracleEncode(local), raw) {
		t.Errorf("%T: ReadLocal: %v, or elements differ from the oracle's", zero, err)
	}
	other := alloc()
	if err := WriteLocal(&rt.ctx, other, 0, local); err != nil || !bytes.Equal(memory(other), raw) {
		t.Errorf("%T: WriteLocal: %v; target memory holds the oracle's image: %v", zero, err, bytes.Equal(memory(other), raw))
	}
	third := alloc()
	if err := Copy(rt, at3, third, n); err != nil || !bytes.Equal(memory(third), raw) {
		t.Errorf("%T: Copy: %v; target memory holds the oracle's image: %v", zero, err, bytes.Equal(memory(third), raw))
	}
}

func TestBufferAPIMatchesOracle(t *testing.T) {
	for _, raw := range append(elemSeeds[1:], genBytes(5, 64), genBytes(6, 300_001)) {
		checkBufferAPI[int8](t, raw)
		checkBufferAPI[int16](t, raw)
		checkBufferAPI[int32](t, raw)
		checkBufferAPI[int64](t, raw)
		checkBufferAPI[uint8](t, raw)
		checkBufferAPI[uint16](t, raw)
		checkBufferAPI[uint32](t, raw)
		checkBufferAPI[uint64](t, raw)
		checkBufferAPI[float32](t, raw)
		checkBufferAPI[float64](t, raw)
		checkBufferAPI[kelvin](t, raw)
	}
}

// TestLocalAccessRejectsForgedPointers: a BufferPtr is decoded off the wire,
// so ReadLocal, WriteLocal and Offset must hold against one that is forged or
// corrupt — fail with an error, wrap nowhere, and touch no memory: nothing
// becomes resident and the neighbouring allocation keeps its bytes.
func TestLocalAccessRejectsForgedPointers(t *testing.T) {
	heap, err := NewHeap("forged", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(&heapBackend{heap: heap}, "forged")
	addr, err := heap.Alloc(8 * 8)
	if err != nil {
		t.Fatal(err)
	}
	next, err := heap.Alloc(64) // directly behind it
	if err != nil {
		t.Fatal(err)
	}
	if err := heap.WriteAt(bytes.Repeat([]byte{0x5A}, 64), next); err != nil {
		t.Fatal(err)
	}
	resident := heap.h.ResidentBytes()
	good := BufferPtr[int64]{Node: 0, Addr: uint64(addr), Count: 8}
	forge := func(edit func(*BufferPtr[int64])) BufferPtr[int64] {
		b := good
		edit(&b)
		return b
	}
	const maxI = math.MaxInt64
	for _, c := range []struct {
		name       string
		b          BufferPtr[int64]
		off, count int64
		want       string
	}{
		{"negative offset", good, -1, 2, "outside buffer"},
		{"negative count", good, 0, -1, "outside buffer"},
		{"past the end", good, 7, 2, "outside buffer"},
		{"off+count wraps", good, maxI, 2, "outside buffer"},
		{"count wraps against a negative Count", forge(func(b *BufferPtr[int64]) { b.Count = -5 }), 0, maxI, "outside buffer"},
		{"Count whose byte size wraps", forge(func(b *BufferPtr[int64]) { b.Count = maxI }), maxI / 2, 2, "outside buffer"},
		{"Count larger than the allocation, into the neighbour", forge(func(b *BufferPtr[int64]) { b.Count = 16 }), 7, 2, "crosses the extent boundary"},
		{"Count larger than the allocation, into nothing", forge(func(b *BufferPtr[int64]) { b.Count = 1 << 40 }), 0, 1 << 40, "fault at"},
		{"unmapped address", forge(func(b *BufferPtr[int64]) { b.Addr = 0xdead000 }), 0, 1, "fault at"},
		{"another node's buffer", forge(func(b *BufferPtr[int64]) { b.Node = 1 }), 0, 1, "accessed from node"},
	} {
		if v, err := ReadLocal(&rt.ctx, c.b, c.off, c.count); err == nil || v != nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: ReadLocal = %d elements, %v; want an error with %q", c.name, len(v), err, c.want)
		}
		if c.count >= 0 && c.count <= 16 {
			vals := make([]int64, c.count)
			for i := range vals {
				vals[i] = -1
			}
			if err := WriteLocal(&rt.ctx, c.b, c.off, vals); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: WriteLocal = %v; want an error with %q", c.name, err, c.want)
			}
		}
	}
	for _, c := range []struct {
		name string
		b    BufferPtr[int64]
		n    int64
	}{
		{"negative", good, -1},
		{"past the end", good, 9},
		{"byte offset wraps", forge(func(b *BufferPtr[int64]) { b.Count = maxI }), maxI / 2},
	} {
		if got, err := c.b.Offset(c.n); err == nil {
			t.Errorf("Offset, %s: %+v, want an error", c.name, got)
		}
	}
	if end, err := good.Offset(8); err != nil || end.Count != 0 || end.Addr != good.Addr+64 {
		t.Errorf("Offset to the end = %+v, %v", end, err)
	}

	if got := heap.h.ResidentBytes(); got != resident {
		t.Errorf("the refused accesses made %d more bytes resident", got-resident)
	}
	kept := make([]byte, 64)
	if err := heap.ReadAt(kept, next); err != nil || !bytes.Equal(kept, bytes.Repeat([]byte{0x5A}, 64)) {
		t.Errorf("the refused accesses changed the neighbouring allocation: %v, % x", err, kept[:8])
	}

	// An address off an element boundary is mapped memory but no []int64.
	odd := forge(func(b *BufferPtr[int64]) { b.Addr++; b.Count = 7 })
	if v, err := ReadLocal(&rt.ctx, odd, 0, 2); err == nil || v != nil || !strings.Contains(err.Error(), "not aligned") {
		t.Errorf("misaligned address: ReadLocal = %d elements, %v; want an alignment error", len(v), err)
	}
}
