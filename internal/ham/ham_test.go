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

// firstNames numbers the names firstName has handed out.
var firstNames int

// firstName returns a handler name that sorts before every name registered
// so far, this run or an earlier one under -count: registering it moves
// every existing key up by one in the binaries built afterwards.
func firstName(stem string) string {
	firstNames++
	return fmt.Sprintf("!%s.%06d", stem, 999999-firstNames)
}

// constHandler answers every message with v.
func constHandler(v int64) Handler {
	return func(env any, dec *Decoder, enc *Encoder) error {
		enc.PutI64(v)
		return nil
	}
}

// TestBinariesAgreeOnKeys: binaries built from one program agree on every
// key, whether it is looked up by name or resolved from the type's ordinal,
// while their local handler addresses differ, as between real binaries.
func TestBinariesAgreeOnKeys(t *testing.T) {
	names := registerN("test.agree", 20)
	host := NewBinary("x86_64-host")
	ve := NewBinary("aurora-ve")
	if len(host.names) != len(ve.names) || len(host.keys) != len(host.names) {
		t.Fatalf("tables of %d and %d keys, %d types", len(host.names), len(ve.names), len(host.keys))
	}
	for typ, hk := range host.keys {
		if vk := ve.keys[typ]; hk != vk {
			t.Fatalf("type %d resolves to key %d on the host and %d on the VE", typ, hk, vk)
		}
		if host.addrs[hk] == ve.addrs[hk] {
			t.Errorf("addresses coincide for %s", host.names[hk])
		}
	}
	for _, n := range names {
		hk, err := host.KeyOf(n)
		if err != nil {
			t.Fatalf("host KeyOf(%s): %v", n, err)
		}
		if vk, err := ve.KeyOf(n); err != nil || vk != hk {
			t.Fatalf("keys disagree for %s: %d vs %d (%v)", n, hk, vk, err)
		}
		if host.names[hk] != n {
			t.Fatalf("KeyOf(%s) = %d, which names %s", n, hk, host.names[hk])
		}
	}
	if _, err := host.KeyOf("no.such.message"); err == nil {
		t.Error("KeyOf of unknown name should fail")
	}
}

// TestDispatchKeyRange: the last key of the table dispatches to the last
// handler, and the key past it draws the key-range failure, not a panic.
func TestDispatchKeyRange(t *testing.T) {
	RegisterHandler("~last", constHandler(7)) // sorts after every other name
	b := NewBinary("range-arch")
	n := Key(len(b.handler))
	for _, tc := range []struct {
		key     Key
		want    int64
		wantErr string
	}{
		{n - 1, 7, ""},
		{n, 0, keyRangeError(n, "range-arch").Error()},
		{1 << 30, 0, keyRangeError(1<<30, "range-arch").Error()},
	} {
		e := NewEncoder()
		e.PutU32(uint32(tc.key))
		dec, err := DecodeResponse(b.Dispatch(nil, e.Bytes()))
		if tc.wantErr != "" {
			if err == nil || !strings.HasSuffix(err.Error(), tc.wantErr) {
				t.Errorf("key %d of %d: %v, want the failure %q", tc.key, n, err, tc.wantErr)
			}
			continue
		}
		if err != nil || dec.I64() != tc.want {
			t.Errorf("key %d of %d: %v, want the last handler's %d", tc.key, n, err, tc.want)
		}
	}
}

// TestLateRegistration: a binary holds the types registered before it was
// built. One built earlier cannot encode a later type; two built on either
// side of a registration that sorts first disagree on every key, and their
// fingerprints (what core's CheckCompatible compares) say so; and each
// binary dispatches its own encodes to the right handler.
func TestLateRegistration(t *testing.T) {
	early := RegisterHandler(freshName("late.early"), constHandler(1))
	before := NewBinary("before-arch")
	lateName := firstName("late.first")
	late := RegisterHandler(lateName, constHandler(2))
	after := NewBinary("after-arch")

	if _, err := before.EncodeRequestTo(NewEncoder(), late, nil); err == nil || err.Error() != lateTypeError(late, "before-arch").Error() {
		t.Errorf("a binary built before %s encodes it: %v", lateName, err)
	}
	if kb, ka := before.keys[early], after.keys[early]; ka != kb+1 {
		t.Errorf("an earlier type's key is %d before and %d after a first-sorting registration, want one more", kb, ka)
	}
	if before.Fingerprint() == after.Fingerprint() {
		t.Error("binaries that disagree on keys share a fingerprint")
	}
	for _, tc := range []struct {
		b    *Binary
		typ  Type
		want int64
	}{{before, early, 1}, {after, early, 1}, {after, late, 2}} {
		msg, err := tc.b.EncodeRequestTo(NewEncoder(), tc.typ, nil)
		if err != nil {
			t.Fatalf("%s: encode type %d: %v", tc.b.arch, tc.typ, err)
		}
		dec, err := DecodeResponse(tc.b.Dispatch(nil, msg))
		if err != nil || dec.I64() != tc.want {
			t.Errorf("%s: type %d dispatched with %v, want the handler answering %d", tc.b.arch, tc.typ, err, tc.want)
		}
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
	// Re-registration replaces, not duplicates, and keeps the ordinal.
	typ := RegisterHandler(one, func(env any, dec *Decoder, enc *Encoder) error { return nil })
	if again := RegisterHandler(one, constHandler(3)); again != typ {
		t.Errorf("re-registration changed the ordinal %d to %d", typ, again)
	}
	b := NewBinary("count-arch")
	if len(b.names) != before+1 {
		t.Errorf("re-registration changed the count")
	}
	k, err := b.KeyOf(one)
	if err != nil || k != b.keys[typ] {
		t.Fatalf("KeyOf = %d, %v; the ordinal resolves to %d", k, err, b.keys[typ])
	}
	msg, _ := b.EncodeRequestTo(NewEncoder(), typ, nil)
	if dec, err := DecodeResponse(b.Dispatch(nil, msg)); err != nil || dec.I64() != 3 {
		t.Errorf("the replaced type dispatched with %v, want the replacement's 3", err)
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
