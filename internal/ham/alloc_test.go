package ham

import (
	"bytes"
	"testing"
)

// TestEncodeRequestAllocs pins a request of up to 48 payload bytes at one
// allocation — the encoder, whose inline buffer holds the key and the
// payload — and checks the inline buffer changes no wire byte, on either
// side of the point where a payload outgrows it.
func TestEncodeRequestAllocs(t *testing.T) {
	RegisterHandler("alloc.encode", func(any, *Decoder, *Encoder) error { return nil })
	b := NewBinary("alloc-arch")
	key, err := b.KeyOf("alloc.encode")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 8, 48, encInline - 4, encInline - 3, 200} {
		payload := bytes.Repeat([]byte{0xa5}, n)
		write := func(e *Encoder) { e.buf = append(e.buf, payload...) }
		var msg []byte
		allocs := testing.AllocsPerRun(100, func() { msg, _ = b.EncodeRequest("alloc.encode", write) })
		want := append([]byte{byte(key), byte(key >> 8), byte(key >> 16), byte(key >> 24)}, payload...)
		if !bytes.Equal(msg, want) {
			t.Fatalf("%d-byte payload: wire = %x, want %x", n, msg, want)
		}
		if n <= 48 && allocs != 1 {
			t.Errorf("EncodeRequest of a %d-byte payload allocates %.1f objects, want 1", n, allocs)
		}
	}
}
