package conformance

import (
	"fmt"
	"math"

	"hamoffload/internal/core"
)

// ExerciseBulk lives in a _test file of the package proper so that the
// external test package reaches it as conformance.ExerciseBulk, beside the
// other exercises; only forEachBackend calls it so far.

// inPlaceElems makes cfInPlace's buffer cross a 256 KiB boundary of the
// simulated memory (mem.ChunkSize) with elements to spare on either side.
const inPlaceElems = 256<<10/4 + 64

// inPlaceEdits is what cfInPlace does to its buffer, on a plain slice: the
// host replays it to know what Get must return.
func inPlaceEdits(v []int32) {
	v[0]++
	v[1] = 77
	copy(v[1:], v[:len(v)-1])
	copy(v[2:], []int32{9, 8, 7})
}

// cfInPlace checks, on the target, that ReadLocal hands out the buffer's own
// memory: a store through the result is a store to the buffer, with no
// WriteLocal; WriteLocal of that memory onto itself moves nothing and
// detaches nothing; shifted onto itself across a chunk boundary it is copy
// on a plain slice; and of a slice from elsewhere it still takes a copy.
var cfInPlace = core.NewFunc1[core.Unit]("conformance.inplace",
	func(c *core.Ctx, buf core.BufferPtr[int32]) (core.Unit, error) {
		fail := func(format string, args ...any) (core.Unit, error) {
			return core.Unit{}, fmt.Errorf(format, args...)
		}
		v, err := core.ReadLocal(c, buf, 0, buf.Count)
		if err != nil {
			return core.Unit{}, err
		}
		want := append([]int32(nil), v...)
		inPlaceEdits(want)

		v[0]++
		if again, err := core.ReadLocal(c, buf, 0, 1); err != nil || again[0] != v[0] {
			return fail("ReadLocal's result is a copy: after a store of %d a second ReadLocal gives %v, %v", v[0], again, err)
		}
		if err := core.WriteLocal(c, buf, 0, v); err != nil {
			return core.Unit{}, err
		}
		v[1] = 77 // still the buffer after being written onto itself
		sub, err := core.ReadLocal(c, buf, 1, 10)
		if err != nil || len(sub) != 10 || &sub[0] != &v[1] || sub[0] != 77 {
			return fail("ReadLocal at offset 1 is not the window v[1:11]: %d elements, first %v, %v", len(sub), sub[:1], err)
		}
		if err := core.WriteLocal(c, buf, 1, v[:len(v)-1]); err != nil { // overlapping, one element up
			return core.Unit{}, err
		}
		src := []int32{9, 8, 7}
		if err := core.WriteLocal(c, buf, 2, src); err != nil {
			return core.Unit{}, err
		}
		src[0], src[1], src[2] = -1, -1, -1 // WriteLocal took a copy, not the slice
		for i := range v {
			if v[i] != want[i] {
				return fail("after the in-place edits element %d holds %d, a plain slice %d", i, v[i], want[i])
			}
		}
		return core.Unit{}, nil
	})

// bulkLens are the transfer sizes of ExerciseBulk: elements, then bytes. The
// last two leave mem.ChunkSize (256 KiB) behind on either side of a boundary
// for every element width; 64 KiB − 1 elements do for all but the bytes.
var (
	bulkElemLens = []int{1, 7, 64<<10 - 1}
	bulkByteLens = []int{256<<10 + 8, 1<<20 + 24}
)

// bulkMix is a fixed bit pattern per (kind, length, index): splitmix64.
func bulkMix(a, b, c uint64) uint64 {
	z := a*0x9E3779B97F4A7C15 + b*0xBF58476D1CE4E5B9 + c + 0x94D049BB133111EB
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// bulkKind is the exercise for one element type. from and bits convert
// between T and its bit pattern without a value conversion, so NaN payloads,
// signalling NaNs and −0 are compared bit for bit; special patterns lead
// every transfer.
func bulkKind[T core.Elem](t Reporter, rt *core.Runtime, target core.NodeID, kind uint64, size int,
	from func(uint64) T, bits func(T) uint64, special ...uint64) {
	name := fmt.Sprintf("%T", from(0))
	const lead, guard = 3, 5 // elements before the transfer on the target / around it on the host
	pattern := func(n int, salt uint64) []T {
		out := make([]T, n)
		for i := range out {
			out[i] = from(bulkMix(kind, salt, uint64(i)))
			if i < len(special) {
				out[i] = from(special[i])
			}
		}
		return out
	}
	lens := append([]int(nil), bulkElemLens...)
	for _, b := range bulkByteLens {
		lens = append(lens, b/size)
	}
	for _, n := range lens {
		buf, err := core.Allocate[T](rt, target, int64(lead+n+guard))
		if err != nil {
			t.Errorf("bulk %s × %d: Allocate: %v", name, n, err)
			return
		}
		at, err := buf.Offset(lead) // an address no allocator hands out: not 64-byte aligned
		if err != nil {
			t.Errorf("bulk %s × %d: Offset: %v", name, n, err)
			return
		}
		src := pattern(n, uint64(n))
		if err := core.Put(rt, src, at); err != nil {
			t.Errorf("bulk %s × %d: Put: %v", name, n, err)
		}
		for i := range src { // the borrow ended when Put returned
			src[i] = from(^bits(src[i]))
		}
		want := pattern(n, uint64(n))

		// Get the whole buffer into the middle of a larger slice: the lead
		// and tail elements the Put must not have touched are still zero, the
		// data is bit-exact, the neighbours on the host keep their sentinel.
		sentinel := from(0xA5A5A5A5A5A5A5A5)
		host := make([]T, guard+lead+n+guard+guard)
		for i := range host {
			host[i] = sentinel
		}
		if err := core.Get(rt, buf, host[guard:guard+lead+n+guard]); err != nil {
			t.Errorf("bulk %s × %d: Get: %v", name, n, err)
		}
		bad := -1
		for i, v := range host {
			j := i - guard - lead // index into the transfer
			expect := uint64(0)
			switch {
			case i < guard || i >= guard+lead+n+guard:
				expect = bits(sentinel)
			case j >= 0 && j < n:
				expect = bits(want[j])
			}
			if bits(v) != expect {
				bad = i
				break
			}
		}
		if bad >= 0 {
			t.Errorf("bulk %s × %d: after Put at element %d and Get of the buffer into host[%d:], host[%d] holds %#x",
				name, n, lead, guard, bad, bits(host[bad]))
		}

		// Copy to a second buffer, at another odd offset, and read that back.
		dup, err := core.Allocate[T](rt, target, int64(1+n))
		if err != nil {
			t.Errorf("bulk %s × %d: Allocate: %v", name, n, err)
			return
		}
		dupAt, _ := dup.Offset(1)
		back := make([]T, n)
		if err := core.Copy(rt, at, dupAt, int64(n)); err != nil {
			t.Errorf("bulk %s × %d: Copy: %v", name, n, err)
		} else if err := core.Get(rt, dupAt, back); err != nil {
			t.Errorf("bulk %s × %d: Get of the copy: %v", name, n, err)
		}
		for i := range back {
			if bits(back[i]) != bits(want[i]) {
				t.Errorf("bulk %s × %d: copy differs at element %d", name, n, i)
				break
			}
		}
		for _, b := range []core.BufferPtr[T]{buf, dup} {
			if err := core.Free(rt, b); err != nil {
				t.Errorf("bulk %s × %d: Free: %v", name, n, err)
			}
		}
	}
}

func bulkInt[T ~int8 | ~int16 | ~int32 | ~int64 | ~uint8 | ~uint16 | ~uint32 | ~uint64](
	t Reporter, rt *core.Runtime, target core.NodeID, kind uint64, size int) {
	mask := ^uint64(0) >> (64 - 8*size)
	bulkKind(t, rt, target, kind, size,
		func(b uint64) T { return T(b) }, func(v T) uint64 { return uint64(v) & mask },
		1<<(8*size-1), mask) // most negative / top bit, all ones
}

// celsius is an element type that is not a predeclared one.
type celsius float64

// ExerciseBulk is the bulk-data side of the contract (Table II's put, get and
// copy, and the kernels' ReadLocal/WriteLocal, which work on the buffer in
// place — cfInPlace): every element kind moves
// bit-exactly at sizes and target addresses on both sides of the simulated
// memories' chunk boundaries, and the caller's slices are borrowed for the
// call only — Backend.Put has read src when it returns, Backend.Get writes
// dst and nothing around it. It must run in the host's execution context.
func ExerciseBulk(t Reporter, rt *core.Runtime, target core.NodeID) {
	bulkInt[int8](t, rt, target, 1, 1)
	bulkInt[int16](t, rt, target, 2, 2)
	bulkInt[int32](t, rt, target, 3, 4)
	bulkInt[int64](t, rt, target, 4, 8)
	bulkInt[uint8](t, rt, target, 5, 1)
	bulkInt[uint16](t, rt, target, 6, 2)
	bulkInt[uint32](t, rt, target, 7, 4)
	bulkInt[uint64](t, rt, target, 8, 8)
	bulkKind(t, rt, target, 9, 4,
		func(b uint64) float32 { return math.Float32frombits(uint32(b)) },
		func(v float32) uint64 { return uint64(math.Float32bits(v)) },
		0x8000_0000, 0x7F80_0001, 0xFFC5_5555) // −0, signalling NaN, quiet NaN with a payload
	f64Special := []uint64{0x8000_0000_0000_0000, 0x7FF0_0000_0000_0001, 0xFFF8_0000_DEAD_BEEF}
	bulkKind(t, rt, target, 10, 8, math.Float64frombits, math.Float64bits, f64Special...)
	bulkKind(t, rt, target, 11, 8,
		func(b uint64) celsius { return celsius(math.Float64frombits(b)) },
		func(v celsius) uint64 { return math.Float64bits(float64(v)) }, f64Special...)

	buf, err := core.Allocate[int32](rt, target, inPlaceElems)
	if err != nil {
		t.Errorf("bulk: Allocate: %v", err)
		return
	}
	want := make([]int32, inPlaceElems)
	for i := range want {
		want[i] = int32(bulkMix(12, 0, uint64(i)))
	}
	if err := core.Put(rt, want, buf); err != nil {
		t.Errorf("bulk: Put: %v", err)
	}
	if _, err := core.Sync(rt, target, cfInPlace.Bind(buf)); err != nil {
		t.Errorf("bulk: %v", err)
	}
	inPlaceEdits(want)
	got := make([]int32, inPlaceElems)
	if err := core.Get(rt, buf, got); err != nil {
		t.Errorf("bulk: Get: %v", err)
	}
	for i := range got { // the kernel never called WriteLocal for most of this
		if got[i] != want[i] {
			t.Errorf("bulk: after the kernel's in-place edits Get returns %d at element %d, want %d", got[i], i, want[i])
			break
		}
	}
	if err := core.Free(rt, buf); err != nil {
		t.Errorf("bulk: Free: %v", err)
	}
}
