package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"hamoffload/internal/ham"
)

// FuzzBatchFrame fuzzes the batch frame decoder (openBatch /
// openBatchInto) with arbitrary bytes. The decoder sits on the target's
// receive path, so whatever arrives on the wire — malformed, truncated,
// count-mismatched — it must classify without panicking or over-reading:
//
//   - not a frame: isBatch = false, nil error, nil entries (the bytes fall
//     through to the plain HAM / FT dispatch path);
//   - a broken frame: isBatch = true and ErrPayloadCorrupt;
//   - a well-formed frame: entries that alias the input and re-seal to the
//     byte-identical frame (the codec admits exactly one encoding, so a
//     clean parse proves the frame came from sealBatch).
//
// The same bytes also answer a frame call on the initiator whose entries
// expect results of types drawn from the bytes (settleDrawn): every entry
// settles through its own sink's decoder, or all of them fail, and nothing
// panics.
//
// Run with `go test -fuzz FuzzBatchFrame ./internal/core` to explore; the
// committed corpus below seeds it from valid encoder output plus the
// classic corruption shapes.
func FuzzBatchFrame(f *testing.F) {
	// Valid encoder output, from empty-payload singletons up to mixed sizes.
	for _, msgs := range [][][]byte{
		{{}},
		{{1, 2, 3}},
		{{}, {0xff}, bytes.Repeat([]byte{7}, 300)},
		{make([]byte, 1), make([]byte, 2), make([]byte, 3), make([]byte, 4)},
	} {
		f.Add(sealBatch(msgs))
	}
	// Corrupted frames: truncation, trailing garbage, count mismatches.
	base := sealBatch([][]byte{{1, 2, 3}, {4, 5}})
	f.Add(base[:len(base)-1])
	f.Add(append(append([]byte(nil), base...), 0xEE))
	over := append([]byte(nil), base...)
	binary.LittleEndian.PutUint32(over[4:8], 1<<30)
	f.Add(over)
	// Non-frames: plain bytes, bare magic, zeroes.
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add(binary.LittleEndian.AppendUint32(nil, batMagic))
	f.Add(make([]byte, 64))

	// A target's response frame to one request of each result type.
	host := NewRuntime(&allocBackend{}, "fuzz-arch-batch-h")
	target := NewRuntime(&allocBackend{}, "fuzz-arch-batch-t")
	reqs := [][]byte{
		requestWire(f, host, fnMixInt.Bind(3)), requestWire(f, host, fnMixFloat.Bind(3)),
		requestWire(f, host, fnMixString.Bind(3)), requestWire(f, host, fnMixBytes.Bind(3)),
		requestWire(f, host, fnMixPoint.Bind(3)), requestWire(f, host, fnMixUnit.Bind(3)),
	}
	f.Add(append([]byte(nil), target.Dispatch(sealBatch(reqs))...))

	f.Fuzz(func(t *testing.T, msg []byte) {
		settleDrawn(t, host, msg)
		entries, isBatch, err := openBatch(msg)
		if !isBatch {
			// Plain message: it must pass through untouched, with no entries
			// and no error, regardless of content.
			if err != nil {
				t.Fatalf("non-frame returned error %v", err)
			}
			if entries != nil {
				t.Fatalf("non-frame returned %d entries", len(entries))
			}
			return
		}
		if err != nil {
			// Broken frame: the error contract is ErrPayloadCorrupt so the
			// target can answer with a failure response instead of crashing.
			if !errors.Is(err, ErrPayloadCorrupt) {
				t.Fatalf("broken frame error %v is not ErrPayloadCorrupt", err)
			}
			return
		}
		// Clean parse: every entry must lie inside msg (no over-read) and
		// the entries must re-encode to the byte-identical frame.
		total := batHeader
		for i, e := range entries {
			total += batPerMsg + len(e)
			if len(e) > len(msg) {
				t.Fatalf("entry %d longer than the whole frame", i)
			}
		}
		if total != len(msg) {
			t.Fatalf("entries span %d bytes, frame has %d", total, len(msg))
		}
		if !bytes.Equal(sealBatch(entries), msg) {
			t.Fatal("clean frame did not re-seal byte-identically")
		}
		// openBatchInto must append after existing scratch, not clobber it.
		scratch := [][]byte{{0xAA}}
		into, isBatch2, err2 := openBatchInto(scratch, msg)
		if !isBatch2 || err2 != nil {
			t.Fatalf("openBatchInto disagreed with openBatch: batch %v, %v", isBatch2, err2)
		}
		if len(into) != 1+len(entries) || len(into[0]) != 1 || into[0][0] != 0xAA {
			t.Fatal("openBatchInto clobbered the caller's scratch prefix")
		}
	})
}

// settleDrawn answers a frame call on rt with msg. The call's entries — as
// many as msg frames, or a few when it frames none — expect results of
// types drawn from msg's bytes. Every entry must settle, and the call must
// be back on the free list.
func settleDrawn(t *testing.T, rt *Runtime, msg []byte) {
	entries, isBatch, err := openBatch(msg)
	n := len(entries)
	if !isBatch || err != nil {
		n = 1 + len(msg)%4
	}
	c := rt.takeCall()
	c.frame = true
	done := make([]func() bool, n)
	for i := range done {
		k := byte(i)
		if len(msg) > 0 {
			k = msg[len(msg)-1-i%len(msg)]
		}
		done[i] = drawSink(c, k)
	}
	if err := c.deliver(msg); err != nil {
		c.failAll(err)
	}
	for i, d := range done {
		if !d() {
			t.Fatalf("entry %d of %d is not settled", i, n)
		}
	}
	if open := rt.OpenCalls(); open != 0 {
		t.Fatalf("OpenCalls() = %d after the frame settled", open)
	}
}

// drawSink adds an entry expecting a result of kind k — int64, float64,
// string, []byte, a Marshaler or Unit — to the frame call c, the way Issue
// adds one, and returns whether its future is done (then running Get).
func drawSink(c *call, k byte) func() bool {
	switch k % 6 {
	case 0:
		return sinkOf(c, fnMixInt.decode)
	case 1:
		return sinkOf(c, fnMixFloat.decode)
	case 2:
		return sinkOf(c, fnMixString.decode)
	case 3:
		return sinkOf(c, fnMixBytes.decode)
	case 4:
		return sinkOf(c, fnMixPoint.decode)
	}
	return sinkOf(c, fnMixUnit.decode)
}

func sinkOf[R any](c *call, dec func(*ham.Decoder) (R, error)) func() bool {
	f := &Future[R]{c: c}
	c.sinks = append(c.sinks, sink{f, dec})
	c.pds = append(c.pds, nil)
	return func() bool {
		if !f.Done() {
			return false
		}
		f.Get()
		return true
	}
}
