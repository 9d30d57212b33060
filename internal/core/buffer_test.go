package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"hamoffload/internal/mem"
)

// Put, Get, ReadLocal and WriteLocal move a []T as the bytes it already is
// (elemBytes). What those bytes must be is the codec the runtime used before:
// encoding/binary over a bytes.Buffer, little-endian, one reflection walk per
// slice. It is kept here — and only here — as the oracle the in-place view is
// compared against, for every element kind.

func oracleEncode[T Elem](order binary.ByteOrder, src []T) []byte {
	var buf bytes.Buffer
	if err := binary.Write(&buf, order, src); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func oracleDecode[T Elem](data []byte, dst []T) {
	if err := binary.Read(bytes.NewReader(data), binary.LittleEndian, dst); err != nil {
		panic(err)
	}
}

// kelvin is an element type that is not a predeclared one: Elem admits any
// type whose underlying type is.
type kelvin float64

// checkElemKind reads raw as little-endian elements of T with the oracle and
// checks the byte view against it both ways — as a source (wireBytes) and as
// a destination (elemBytes filled, then swapElems) — plus that the view is
// the slice's own storage and sizeOf is the encoded size.
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

	if got := wireBytes(vals); !bytes.Equal(got, raw) || !bytes.Equal(got, oracleEncode(binary.LittleEndian, vals)) {
		t.Errorf("%T × %d: wireBytes differs from the encoding/binary image", zero, n)
	}
	for _, cut := range []int{1, n / 2} { // a view of a sub-slice starts at its first element
		if cut <= n && !bytes.Equal(wireBytes(vals[cut:]), raw[cut*size:]) {
			t.Errorf("%T × %d: wireBytes(vals[%d:]) is not the tail of the image", zero, n, cut)
		}
	}

	// As a destination: bytes stored through the view are the elements the
	// oracle decodes, and nothing outside the view moves.
	out := make([]T, n+2)
	copy(elemBytes(out[1:n+1]), raw)
	swapElems(elemBytes(out[1:n+1]), int64(size))
	if !bytes.Equal(oracleEncode(binary.LittleEndian, out[1:n+1]), raw) {
		t.Errorf("%T × %d: elements filled through elemBytes differ from binary.Read's", zero, n)
	}
	if out[0] != 0 || out[n+1] != 0 {
		t.Errorf("%T × %d: filling the view wrote outside it", zero, n)
	}

	if n > 0 { // in place: a store through the view is a store to the slice
		elemBytes(vals)[0] ^= 0xFF
		if bytes.Equal(oracleEncode(binary.LittleEndian, vals), raw) {
			t.Errorf("%T: elemBytes is a copy, not the slice's own memory", zero)
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

// TestBigEndianFallback runs the conversions of a build whose byte order is
// not target memory's: the image a backend reads is a little-endian copy,
// never the caller's storage, and a filled destination converts back.
func TestBigEndianFallback(t *testing.T) {
	defer func(was bool) { littleEndian = was }(littleEndian)
	// With the flag flipped on a little-endian build the "converted" image is
	// the big-endian one — the same element-wise reversal, seen from here.
	littleEndian = !littleEndian
	if littleEndian {
		t.Skip("big-endian build: the fallback is what every other test runs")
	}
	vals := []float64{1.5, -0.0, 3e300}
	want := oracleEncode(binary.BigEndian, vals)
	got := wireBytes(vals)
	if !bytes.Equal(got, want) {
		t.Errorf("converted image % x, want % x", got, want)
	}
	got[0] ^= 0xFF
	if vals[0] != 1.5 {
		t.Errorf("the converted image aliases the caller's slice")
	}
	back := make([]float64, len(vals))
	copy(elemBytes(back), want)
	swapElems(elemBytes(back), 8)
	if !bytes.Equal(oracleEncode(binary.LittleEndian, back), oracleEncode(binary.LittleEndian, vals)) {
		t.Errorf("converted back: %v, want %v", back, vals)
	}
	for _, size := range []int64{1, 2, 4} { // every element width reverses within itself
		b := []byte{1, 2, 3, 4, 5, 6, 7, 8}
		swapElems(b, size)
		for i := range b {
			if e := int64(i) / size; b[i] != byte(e*size+size-int64(i)%size) {
				t.Errorf("swapElems(size %d) = %v", size, b)
				break
			}
		}
	}
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
	if err := Get(rt, at3, got); err != nil || !bytes.Equal(oracleEncode(binary.LittleEndian, got), raw) {
		t.Errorf("%T: Get: %v, or elements differ from the oracle's", zero, err)
	}
	local, err := ReadLocal(&rt.ctx, buf, 3, n)
	if err != nil || !bytes.Equal(oracleEncode(binary.LittleEndian, local), raw) {
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
