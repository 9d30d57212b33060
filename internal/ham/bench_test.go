package ham

import (
	"fmt"
	"testing"
)

// BenchmarkEncodeMessage measures building a typical offload message: key,
// two buffer pointers (3 words each) and a length.
func BenchmarkEncodeMessage(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEncoder()
		e.PutU32(17)
		for j := 0; j < 2; j++ {
			e.PutI64(1)
			e.PutU64(0x6000_0000_0000)
			e.PutI64(1024)
		}
		e.PutI64(1024)
		_ = e.Bytes()
	}
}

// BenchmarkDecodeMessage measures the matching decode path.
func BenchmarkDecodeMessage(b *testing.B) {
	e := NewEncoder()
	e.PutU32(17)
	for j := 0; j < 2; j++ {
		e.PutI64(1)
		e.PutU64(0x6000_0000_0000)
		e.PutI64(1024)
	}
	e.PutI64(1024)
	msg := e.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := NewDecoder(msg)
		_ = d.U32()
		for j := 0; j < 2; j++ {
			_ = d.I64()
			_ = d.U64()
			_ = d.I64()
		}
		_ = d.I64()
		if d.Err() != nil {
			b.Fatal(d.Err())
		}
	}
}

// BenchmarkDispatch measures the full receive-side path of Fig. 6: key
// extraction, key→address translation, handler call, response framing.
func BenchmarkDispatch(b *testing.B) {
	RegisterHandler("bench.dispatch", func(env any, dec *Decoder, enc *Encoder) error {
		a := dec.I64()
		enc.PutI64(a + 1)
		return nil
	})
	bin := NewBinary("bench-arch")
	msg, err := bin.EncodeRequest("bench.dispatch", func(e *Encoder) { e.PutI64(41) })
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp := bin.Dispatch(nil, msg)
		if resp[0] != statusOK {
			b.Fatal("dispatch failed")
		}
	}
}

// BenchmarkKeyTranslation measures the O(1) address↔key tables at realistic
// registry sizes.
func BenchmarkKeyTranslation(b *testing.B) {
	for i := 0; i < 200; i++ {
		RegisterHandler(fmt.Sprintf("bench.xlate.%03d", i),
			func(env any, dec *Decoder, enc *Encoder) error { return nil })
	}
	bin := NewBinary("xlate-arch")
	addr, err := bin.AddrOf(Key(len(bin.names) / 2))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k, err := bin.KeyOfAddr(addr)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := bin.AddrOf(k); err != nil {
			b.Fatal(err)
		}
	}
}
