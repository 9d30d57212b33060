package ham

import (
	"bytes"
	"testing"
)

// FuzzDispatch feeds arbitrary bytes into a binary's dispatcher: whatever a
// (broken or malicious) peer sends, dispatch must return a well-formed
// response and never panic — the receive path turns "typeless bytes back
// into the typesafe world" (§III-E) and must do so defensively.
func FuzzDispatch(f *testing.F) {
	RegisterHandler("fuzz.sink", func(env any, dec *Decoder, enc *Encoder) error {
		// A handler that reads a realistic argument mix.
		_ = dec.I64()
		_ = dec.String()
		_ = dec.F64s()
		if err := dec.Err(); err != nil {
			return err
		}
		enc.PutI64(1)
		return nil
	})
	bin := NewBinary("fuzz-arch")
	good, err := bin.EncodeRequest("fuzz.sink", func(e *Encoder) {
		e.PutI64(7)
		e.PutString("x")
		e.PutF64s([]float64{1, 2})
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add(good[:3])
	f.Add(append(append([]byte{}, good...), 0xcc, 0xdd))
	// The last key of the table and the first past it.
	for _, k := range []int{len(bin.handler) - 1, len(bin.handler)} {
		e := NewEncoder()
		e.PutU32(uint32(k))
		f.Add(e.Bytes())
	}

	f.Fuzz(func(t *testing.T, msg []byte) {
		resp := bin.Dispatch(nil, msg)
		if len(resp) == 0 {
			t.Fatal("empty response")
		}
		// The response itself must decode as a valid response frame.
		if dec, err := DecodeResponse(resp); err == nil {
			_ = dec.I64()
		}
	})
}

// FuzzDecoder checks that every accessor tolerates arbitrary input without
// panicking and that the sticky error model holds: once Err() is non-nil it
// stays non-nil.
func FuzzDecoder(f *testing.F) {
	enc := NewEncoder()
	enc.PutU64(1)
	enc.PutString("seed")
	enc.PutBytes([]byte{1, 2, 3})
	f.Add(enc.Bytes())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 40))
	// Hostile slice counts behind the 42 bytes the scalar, string and byte
	// reads take: 2^28-1 F64s, then (after an empty F64s) 2^32-1 I64s.
	prefix := make([]byte, 42)
	f.Add(append(prefix[:42:42], 0xff, 0xff, 0xff, 0x0f))
	f.Add(append(prefix[:42:42], 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff))

	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		_ = d.U8()
		_ = d.U32()
		_ = d.U64()
		_ = d.I64()
		_ = d.F64()
		_ = d.F32()
		_ = d.Bool()
		_ = d.String()
		_ = d.Bytes()
		_ = d.F64s()
		_ = d.I64s()
		firstErr := d.Err()
		_ = d.U64()
		if firstErr != nil && d.Err() == nil {
			t.Fatal("sticky error cleared")
		}
		if d.Remaining() < 0 {
			t.Fatal("negative remaining")
		}
	})
}
