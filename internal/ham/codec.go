// Package ham implements Heterogeneous Active Messages: typed messages that
// can be transferred and executed between the heterogeneous binaries of the
// same program (paper §I-A, §III-E). The C++ original generates message
// types and handlers through template meta-programming and translates
// handler addresses between binaries via typeid-name tables; this Go port
// keeps the same architecture — a per-binary handler table with differing
// local addresses, a lexicographically sorted name table yielding globally
// valid handler keys, each resolved once per binary, and one table index
// from a key to its handler — with Go generics playing the role of the
// templates.
package ham

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Encoder serialises message payloads. All values are little-endian; the
// x86-64 VH and the VE ABI share endianness, which is what makes the format
// exchangeable between the heterogeneous binaries.
type Encoder struct {
	buf []byte
	// inline backs buf while the payload fits, so a small message needs no
	// buffer of its own: nothing for append growth, and nothing at all in
	// an encoder that lives in a longer-lived value.
	inline [encInline]byte
}

// encInline makes an Encoder exactly one 80-byte allocation class: the key
// plus 52 payload bytes, which covers every scalar-argument offload.
const encInline = 56

// NewEncoder returns an empty encoder, for bytes the caller keeps:
// EncodeRequest's result, a failure response built outside a handler, a
// re-entrant dispatch. A runtime encodes each request into the encoder of
// the pooled call that carries it (EncodeRequestTo) instead, because that
// call owns the wire until the message settles.
func NewEncoder() *Encoder {
	e := &Encoder{}
	e.Reset()
	return e
}

// Bytes returns the encoded payload.
func (e *Encoder) Bytes() []byte { return e.buf }

// Reset clears the encoder for reuse. A zero Encoder is ready once Reset:
// it writes into its inline buffer until a payload outgrows it.
func (e *Encoder) Reset() {
	if e.buf == nil {
		e.buf = e.inline[:0]
	}
	e.buf = e.buf[:0]
}

// PutU8 appends one byte.
func (e *Encoder) PutU8(v uint8) { e.buf = append(e.buf, v) }

// PutU32 appends a 32-bit word.
func (e *Encoder) PutU32(v uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

// PutU64 appends a 64-bit word.
func (e *Encoder) PutU64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// PutI64 appends a signed 64-bit word.
func (e *Encoder) PutI64(v int64) { e.PutU64(uint64(v)) }

// PutF64 appends a float64.
func (e *Encoder) PutF64(v float64) { e.PutU64(math.Float64bits(v)) }

// PutF32 appends a float32.
func (e *Encoder) PutF32(v float32) { e.PutU32(math.Float32bits(v)) }

// PutBool appends a bool as one byte.
func (e *Encoder) PutBool(v bool) {
	if v {
		e.PutU8(1)
	} else {
		e.PutU8(0)
	}
}

// PutString appends a length-prefixed string.
func (e *Encoder) PutString(s string) {
	e.PutU32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// PutRaw appends b as it is, with no length prefix: bytes another encoder
// produced.
func (e *Encoder) PutRaw(b []byte) { e.buf = append(e.buf, b...) }

// PutBytes appends a length-prefixed byte slice.
func (e *Encoder) PutBytes(b []byte) {
	e.PutU32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// PutF64s appends a length-prefixed []float64.
func (e *Encoder) PutF64s(v []float64) {
	e.PutU32(uint32(len(v)))
	for _, x := range v {
		e.PutF64(x)
	}
}

// PutI64s appends a length-prefixed []int64.
func (e *Encoder) PutI64s(v []int64) {
	e.PutU32(uint32(len(v)))
	for _, x := range v {
		e.PutI64(x)
	}
}

// Decoder deserialises message payloads. Errors are sticky: after the first
// underrun every accessor returns zero values and Err reports the failure.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps a payload for decoding. The decoder aliases buf — it
// shares whatever validity window the payload has.
//
//ham:borrowed buf return
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Reset re-targets the decoder at a new payload and clears any sticky error,
// so one decoder can be reused across sequential messages without
// reallocating. The decoder is itself scratch with the same validity window
// as buf, which is why the retaining store below is sanctioned.
//
//ham:borrowed buf
func (d *Decoder) Reset(buf []byte) { d.buf, d.off, d.err = buf, 0, nil } //lint:allow borrowck the decoder is scratch sharing buf's validity window; it never outlives the message

// Err returns the first decoding error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.err = underrunError(n, d.off, len(d.buf))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// underrunError renders the sticky decode failure. It is split out of take
// so the hot decode path only pays for the formatting when a message is
// actually truncated.
func underrunError(need, off, total int) error {
	return fmt.Errorf("ham: decode underrun: need %d bytes at offset %d of %d", need, off, total)
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a 32-bit word.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a 64-bit word.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a signed 64-bit word.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// F64 reads a float64.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// F32 reads a float32.
func (d *Decoder) F32() float32 { return math.Float32frombits(d.U32()) }

// Bool reads a bool.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := int(d.U32())
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Bytes reads a length-prefixed byte slice (copied): for values that
// outlive the payload, such as a result on the host or a Marshaler's field.
func (d *Decoder) Bytes() []byte {
	n := int(d.U32())
	b := d.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// BytesView reads a length-prefixed byte slice in place: the bytes are the
// payload's own, valid as long as it is, and the capacity is clipped to
// them, so an append to the view reallocates instead of writing over the
// rest of the payload.
//
//ham:borrowed return
func (d *Decoder) BytesView() []byte {
	n := int(d.U32())
	b := d.take(n)
	return b[:len(b):len(b)]
}

// count reads the length prefix of a slice of size-byte elements. A count
// the rest of the message cannot hold is the sticky underrun, raised before
// anything is allocated: the count is the peer's word, and four bytes of it
// must not buy gigabytes.
func (d *Decoder) count(size int) int {
	n := int(d.U32())
	if d.err == nil && n > d.Remaining()/size {
		d.err = underrunError(n*size, d.off, len(d.buf))
	}
	return n
}

// F64s reads a length-prefixed []float64.
func (d *Decoder) F64s() []float64 {
	n := d.count(8)
	if d.err != nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.F64()
	}
	return out
}

// I64s reads a length-prefixed []int64.
func (d *Decoder) I64s() []int64 {
	n := d.count(8)
	if d.err != nil {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = d.I64()
	}
	return out
}
