package ham

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestCodecRoundTrip(t *testing.T) {
	e := NewEncoder()
	e.PutU8(7)
	e.PutU32(1 << 20)
	e.PutU64(1 << 40)
	e.PutI64(-42)
	e.PutF64(3.14159)
	e.PutF32(2.5)
	e.PutBool(true)
	e.PutBool(false)
	e.PutString("heterogeneous")
	e.PutBytes([]byte{1, 2, 3})
	e.PutF64s([]float64{1.5, -2.5})
	e.PutI64s([]int64{-1, 0, 1})

	d := NewDecoder(e.Bytes())
	if d.U8() != 7 || d.U32() != 1<<20 || d.U64() != 1<<40 || d.I64() != -42 {
		t.Error("integer round trip failed")
	}
	if d.F64() != 3.14159 || d.F32() != 2.5 {
		t.Error("float round trip failed")
	}
	if !d.Bool() || d.Bool() {
		t.Error("bool round trip failed")
	}
	if d.String() != "heterogeneous" {
		t.Error("string round trip failed")
	}
	if !bytes.Equal(d.Bytes(), []byte{1, 2, 3}) {
		t.Error("bytes round trip failed")
	}
	f := d.F64s()
	if len(f) != 2 || f[0] != 1.5 || f[1] != -2.5 {
		t.Error("[]float64 round trip failed")
	}
	i := d.I64s()
	if len(i) != 3 || i[0] != -1 || i[2] != 1 {
		t.Error("[]int64 round trip failed")
	}
	if d.Err() != nil {
		t.Fatalf("Err = %v", d.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("Remaining = %d", d.Remaining())
	}
}

func TestDecoderStickyError(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	_ = d.U64() // underrun
	if d.Err() == nil {
		t.Fatal("underrun not detected")
	}
	if d.U32() != 0 || d.String() != "" || d.Bytes() != nil {
		t.Error("post-error reads should return zero values")
	}
	if d.F64s() != nil || d.I64s() != nil {
		t.Error("post-error slice reads should return nil")
	}
}

// TestBytesView: a view read hands out the payload's own bytes, clipped so
// an append cannot reach the next field; a truncated one is the sticky
// underrun; and Bytes, beside it, still copies.
func TestBytesView(t *testing.T) {
	e := NewEncoder()
	e.PutBytes([]byte("view"))
	e.PutU32(0xC0FFEE)
	msg := e.Bytes()

	d := NewDecoder(msg)
	v := d.BytesView()
	if string(v) != "view" || d.Err() != nil {
		t.Fatalf("BytesView = %q, %v; want \"view\"", v, d.Err())
	}
	if &v[0] != &msg[4] {
		t.Error("BytesView copied: the view must alias the payload")
	}
	if cap(v) != len(v) {
		t.Errorf("BytesView capacity %d for %d bytes: an append would write over the next field", cap(v), len(v))
	}
	_ = append(v, 0xFF, 0xFF, 0xFF, 0xFF)
	if w := d.U32(); w != 0xC0FFEE {
		t.Errorf("field after the view = %#x after an append to it, want 0xc0ffee", w)
	}

	trunc := NewDecoder(msg[:6]) // the length word claims 4 bytes, 2 are left
	if v := trunc.BytesView(); v != nil || trunc.Err() == nil {
		t.Fatalf("truncated BytesView = %q, %v; want nil and an underrun", v, trunc.Err())
	}
	if trunc.U8() != 0 || trunc.BytesView() != nil || trunc.Err() == nil {
		t.Error("reads after an underrun in BytesView must stay zero and keep the error")
	}

	b := NewDecoder(msg).Bytes()
	if string(b) != "view" || &b[0] == &msg[4] {
		t.Errorf("Bytes = %q aliasing the payload: it must stay a copy", b)
	}
}

// TestHostileCountAllocatesNothing: a slice count is the peer's word, so a
// few bytes claiming billions of elements must fail as an underrun before
// the decoder allocates for them. What the read allocates is bounded by the
// message, not by the count.
func TestHostileCountAllocatesNothing(t *testing.T) {
	reads := map[string]func(*Decoder) bool{
		"F64s": func(d *Decoder) bool { return d.F64s() == nil },
		"I64s": func(d *Decoder) bool { return d.I64s() == nil },
	}
	for name, read := range reads {
		for _, msg := range [][]byte{
			{0xff, 0xff, 0xff, 0x0f},             // 2^28-1 elements: 2 GiB
			{0xff, 0xff, 0xff, 0xff},             // 2^32-1 elements: 32 GiB
			{0x02, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7}, // two elements, seven bytes
		} {
			var before, after runtime.MemStats
			d := NewDecoder(msg)
			runtime.ReadMemStats(&before)
			isNil := read(d)
			runtime.ReadMemStats(&after)
			if !isNil || d.Err() == nil || !strings.Contains(d.Err().Error(), "underrun") {
				t.Errorf("%s of % x: nil=%v, err=%v; want nil and an underrun", name, msg, isNil, d.Err())
			}
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1024+8*len(msg)); got > limit {
				t.Errorf("%s of a %d-byte message allocated %d bytes, want at most %d", name, len(msg), got, limit)
			}
		}
	}
}

func TestEncoderReset(t *testing.T) {
	e := NewEncoder()
	e.PutU64(1)
	if len(e.Bytes()) != 8 {
		t.Fatalf("Len = %d", len(e.Bytes()))
	}
	e.Reset()
	if len(e.Bytes()) != 0 {
		t.Fatalf("Len after Reset = %d", len(e.Bytes()))
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	f := func(a uint64, b int64, c float64, s string, bs []byte) bool {
		e := NewEncoder()
		e.PutU64(a)
		e.PutI64(b)
		e.PutF64(c)
		e.PutString(s)
		e.PutBytes(bs)
		d := NewDecoder(e.Bytes())
		ga, gb, gc, gs, gbs := d.U64(), d.I64(), d.F64(), d.String(), d.Bytes()
		if d.Err() != nil || d.Remaining() != 0 {
			return false
		}
		// NaN compares unequal to itself; compare bit patterns via encode.
		e2 := NewEncoder()
		e2.PutF64(gc)
		e3 := NewEncoder()
		e3.PutF64(c)
		return ga == a && gb == b && bytes.Equal(e2.Bytes(), e3.Bytes()) &&
			gs == s && (len(bs) == 0 && len(gbs) == 0 || bytes.Equal(gbs, bs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// registerN registers n uniquely named no-op handlers under prefix.
func registerN(prefix string, n int) []string {
	var names []string
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("%s.%03d", prefix, i)
		RegisterHandler(name, func(env any, dec *Decoder, enc *Encoder) error {
			return nil
		})
		names = append(names, name)
	}
	return names
}

// freshNames numbers the names freshName has handed out.
var freshNames int

// freshName returns a handler name this process has not registered yet. The
// table is process-global, so a test that must observe a registration (and
// may run twice, under -count=2) cannot use a fixed name. The zzz prefix
// sorts it after every real message, so existing keys keep their values.
func freshName(stem string) string {
	freshNames++
	return fmt.Sprintf("zzz.%s.%d", stem, freshNames)
}

func TestBinariesAgreeOnKeys(t *testing.T) {
	names := registerN("test.agree", 20)
	host := NewBinary("x86_64-host")
	ve := NewBinary("aurora-ve")
	for _, n := range names {
		hk, err := host.KeyOf(n)
		if err != nil {
			t.Fatalf("host KeyOf(%s): %v", n, err)
		}
		vk, err := ve.KeyOf(n)
		if err != nil {
			t.Fatalf("ve KeyOf(%s): %v", n, err)
		}
		if hk != vk {
			t.Fatalf("keys disagree for %s: %d vs %d", n, hk, vk)
		}
		// But the local addresses differ, as between real binaries.
		ha, _ := host.AddrOf(hk)
		va, _ := ve.AddrOf(vk)
		if ha == va {
			t.Errorf("addresses coincide for %s", n)
		}
	}
	if len(host.names) != len(ve.names) {
		t.Fatal("binaries have different message counts")
	}
}

func TestAddressKeyTranslationRoundTrip(t *testing.T) {
	registerN("test.xlate", 8)
	b := NewBinary("arch-a")
	for k := Key(0); int(k) < len(b.names); k++ {
		addr, err := b.AddrOf(k)
		if err != nil {
			t.Fatal(err)
		}
		back, err := b.KeyOfAddr(addr)
		if err != nil {
			t.Fatal(err)
		}
		if back != k {
			t.Fatalf("key %d -> addr %#x -> key %d", k, addr, back)
		}
	}
	if _, err := b.KeyOfAddr(0xdeadbeef); err == nil {
		t.Error("KeyOfAddr of non-handler should fail")
	}
	if _, err := b.AddrOf(Key(1 << 30)); err == nil {
		t.Error("AddrOf of out-of-range key should fail")
	}
	if _, err := b.KeyOf("no.such.message"); err == nil {
		t.Error("KeyOf of unknown name should fail")
	}
}

func TestDispatchCrossBinary(t *testing.T) {
	RegisterHandler("test.dispatch.add", func(env any, dec *Decoder, enc *Encoder) error {
		a, b := dec.I64(), dec.I64()
		if err := dec.Err(); err != nil {
			return err
		}
		enc.PutI64(a + b)
		return nil
	})
	sender := NewBinary("x86_64")
	receiver := NewBinary("aurora")

	msg, err := sender.EncodeRequest("test.dispatch.add", func(e *Encoder) {
		e.PutI64(40)
		e.PutI64(2)
	})
	if err != nil {
		t.Fatal(err)
	}
	resp := receiver.Dispatch(nil, msg)
	dec, err := DecodeResponse(resp)
	if err != nil {
		t.Fatalf("DecodeResponse: %v", err)
	}
	if got := dec.I64(); got != 42 {
		t.Fatalf("result = %d, want 42", got)
	}
}

func TestDispatchErrors(t *testing.T) {
	RegisterHandler("test.dispatch.fail", func(env any, dec *Decoder, enc *Encoder) error {
		return fmt.Errorf("kernel exploded")
	})
	b := NewBinary("arch")
	msg, err := b.EncodeRequest("test.dispatch.fail", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeResponse(b.Dispatch(nil, msg)); err == nil ||
		!strings.Contains(err.Error(), "kernel exploded") {
		t.Errorf("handler error not propagated: %v", err)
	}

	// Unknown key.
	e := NewEncoder()
	e.PutU32(1 << 30)
	if _, err := DecodeResponse(b.Dispatch(nil, e.Bytes())); err == nil {
		t.Error("dispatch of unknown key should fail")
	}

	// Truncated message.
	if _, err := DecodeResponse(b.Dispatch(nil, []byte{1})); err == nil {
		t.Error("dispatch of truncated message should fail")
	}

	// Handler payload underrun.
	RegisterHandler("test.dispatch.underrun", func(env any, dec *Decoder, enc *Encoder) error {
		dec.U64()
		return nil
	})
	b2 := NewBinary("arch2")
	msg2, _ := b2.EncodeRequest("test.dispatch.underrun", nil)
	if _, err := DecodeResponse(b2.Dispatch(nil, msg2)); err == nil {
		t.Error("payload underrun should fail the dispatch")
	}
}

func TestDecodeResponseRejectsGarbage(t *testing.T) {
	if _, err := DecodeResponse([]byte{99}); err == nil {
		t.Error("unknown status accepted")
	}
	if _, err := DecodeResponse([]byte{statusFail, 1, 2}); err == nil {
		t.Error("malformed failure accepted")
	}
}

func TestEnvReachesHandler(t *testing.T) {
	type myEnv struct{ hit bool }
	RegisterHandler("test.env.probe", func(env any, dec *Decoder, enc *Encoder) error {
		env.(*myEnv).hit = true
		return nil
	})
	b := NewBinary("arch")
	env := &myEnv{}
	msg, _ := b.EncodeRequest("test.env.probe", nil)
	if _, err := DecodeResponse(b.Dispatch(env, msg)); err != nil {
		t.Fatal(err)
	}
	if !env.hit {
		t.Error("env did not reach the handler")
	}
}

// Property: for any set of registered names, two binaries instantiated from
// the same program agree on all keys, and sorting is total (keys cover
// 0..n-1 exactly once).
func TestKeyAssignmentProperty(t *testing.T) {
	f := func(raw []string) bool {
		// Derive unique, non-empty names.
		seen := map[string]bool{}
		var names []string
		for i, r := range raw {
			n := fmt.Sprintf("prop.%d.%s", i, r)
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
		for _, n := range names {
			RegisterHandler(n, func(env any, dec *Decoder, enc *Encoder) error { return nil })
		}
		a, b := NewBinary("aa"), NewBinary("bb")
		used := map[Key]bool{}
		for _, n := range names {
			ka, err1 := a.KeyOf(n)
			kb, err2 := b.KeyOf(n)
			if err1 != nil || err2 != nil || ka != kb {
				return false
			}
			used[ka] = true
		}
		return len(a.names) == len(b.names)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterHandlerValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty name accepted")
		}
	}()
	RegisterHandler("", nil)
}

func TestRegisteredCountAndNameOf(t *testing.T) {
	one := freshName("count.one")
	before := len(NewBinary("count-arch").names)
	RegisterHandler(one, func(env any, dec *Decoder, enc *Encoder) error { return nil })
	if n := len(NewBinary("count-arch").names); n != before+1 {
		t.Errorf("registering a new name: %d message types, want %d", n, before+1)
	}
	// Re-registration replaces, not duplicates.
	RegisterHandler(one, func(env any, dec *Decoder, enc *Encoder) error { return nil })
	b := NewBinary("count-arch")
	if len(b.names) != before+1 {
		t.Errorf("re-registration changed the count")
	}
	k, err := b.KeyOf(one)
	if err != nil {
		t.Fatal(err)
	}
	name, err := b.NameOf(k)
	if err != nil || name != one {
		t.Errorf("NameOf = %q, %v", name, err)
	}
	if _, err := b.NameOf(Key(1 << 30)); err == nil {
		t.Error("NameOf out of range accepted")
	}
}

func TestFingerprintStableAcrossArch(t *testing.T) {
	registerN("test.fp", 5)
	a, b := NewBinary("arch-x"), NewBinary("arch-y")
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("fingerprint must depend on the program, not the architecture")
	}
	RegisterHandler(freshName("fp.extra"), func(env any, dec *Decoder, enc *Encoder) error { return nil })
	c := NewBinary("arch-z")
	if c.Fingerprint() == a.Fingerprint() {
		t.Error("fingerprint must change when the program changes")
	}
}

func TestEncodeFailureDecodes(t *testing.T) {
	resp := EncodeFailure("unit failure")
	_, err := DecodeResponse(resp)
	if err == nil || !strings.Contains(err.Error(), "unit failure") {
		t.Errorf("EncodeFailure round trip = %v", err)
	}
}
