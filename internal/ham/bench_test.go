package ham

import "testing"

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
// extraction, the handler-table index, handler call, response framing.
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
