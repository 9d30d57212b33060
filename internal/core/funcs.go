package core

import (
	"fmt"
	"sync"

	"hamoffload/internal/ham"
)

// This file is the Go analog of HAM's f2f() machinery (§III-E, Fig. 6): in
// C++, every (function, argument-types) combination instantiates a message
// type with generated serialisation and a handler; here, NewFuncN performs
// the same instantiation through generics and registers the handler under
// the function's name. Binding arguments yields a Functor that holds a copy
// of them, encoded, which an offload transfers and the target executes.

// Marshaler lets composite argument types define their own wire format.
// Implement it with pointer receivers.
type Marshaler interface {
	EncodeHAM(*ham.Encoder)
	DecodeHAM(*ham.Decoder)
}

// valCodec encodes/decodes one argument or result type.
type valCodec[T any] struct {
	enc func(*ham.Encoder, T)
	dec func(*ham.Decoder) T
}

// codecProvider is implemented by core's own composite argument type,
// BufferPtr: it hands codecFor a codec that passes the value itself, where
// the Marshaler branch must box a pointer to it on both sides.
type codecProvider interface {
	hamCodec() any
}

// codecFor resolves the codec for T: core's own composite types first, then
// Marshaler implementations, then the built-in scalar/slice types.
// Unsupported types panic at registration time — the moment the C++
// original would fail to compile.
func codecFor[T any]() valCodec[T] {
	var zero T
	if p, ok := any(zero).(codecProvider); ok {
		return p.hamCodec().(valCodec[T])
	}
	if _, ok := any(&zero).(Marshaler); ok {
		return valCodec[T]{
			enc: func(e *ham.Encoder, v T) { any(&v).(Marshaler).EncodeHAM(e) },
			dec: func(d *ham.Decoder) T {
				var v T
				any(&v).(Marshaler).DecodeHAM(d)
				return v
			},
		}
	}
	switch any(zero).(type) {
	case Unit:
		return valCodec[T]{
			enc: func(e *ham.Encoder, v T) {},
			dec: func(d *ham.Decoder) T { var v T; return v },
		}
	case bool:
		return valCodec[T]{
			enc: func(e *ham.Encoder, v T) { e.PutBool(any(v).(bool)) },
			dec: func(d *ham.Decoder) T { return any(d.Bool()).(T) },
		}
	case int:
		return valCodec[T]{
			enc: func(e *ham.Encoder, v T) { e.PutI64(int64(any(v).(int))) },
			dec: func(d *ham.Decoder) T { return any(int(d.I64())).(T) },
		}
	case int32:
		return valCodec[T]{
			enc: func(e *ham.Encoder, v T) { e.PutU32(uint32(any(v).(int32))) },
			dec: func(d *ham.Decoder) T { return any(int32(d.U32())).(T) },
		}
	case int64:
		return valCodec[T]{
			enc: func(e *ham.Encoder, v T) { e.PutI64(any(v).(int64)) },
			dec: func(d *ham.Decoder) T { return any(d.I64()).(T) },
		}
	case uint32:
		return valCodec[T]{
			enc: func(e *ham.Encoder, v T) { e.PutU32(any(v).(uint32)) },
			dec: func(d *ham.Decoder) T { return any(d.U32()).(T) },
		}
	case uint64:
		return valCodec[T]{
			enc: func(e *ham.Encoder, v T) { e.PutU64(any(v).(uint64)) },
			dec: func(d *ham.Decoder) T { return any(d.U64()).(T) },
		}
	case float32:
		return valCodec[T]{
			enc: func(e *ham.Encoder, v T) { e.PutF32(any(v).(float32)) },
			dec: func(d *ham.Decoder) T { return any(d.F32()).(T) },
		}
	case float64:
		return valCodec[T]{
			enc: func(e *ham.Encoder, v T) { e.PutF64(any(v).(float64)) },
			dec: func(d *ham.Decoder) T { return any(d.F64()).(T) },
		}
	case string:
		return valCodec[T]{
			enc: func(e *ham.Encoder, v T) { e.PutString(any(v).(string)) },
			dec: func(d *ham.Decoder) T { return any(d.String()).(T) },
		}
	case []byte:
		return valCodec[T]{
			enc: func(e *ham.Encoder, v T) { e.PutBytes(any(v).([]byte)) },
			dec: func(d *ham.Decoder) T { return any(d.Bytes()).(T) },
		}
	case []float64:
		return valCodec[T]{
			enc: func(e *ham.Encoder, v T) { e.PutF64s(any(v).([]float64)) },
			dec: func(d *ham.Decoder) T { return any(d.F64s()).(T) },
		}
	case []int64:
		return valCodec[T]{
			enc: func(e *ham.Encoder, v T) { e.PutI64s(any(v).([]int64)) },
			dec: func(d *ham.Decoder) T { return any(d.I64s()).(T) },
		}
	default:
		panic(fmt.Sprintf("core: no HAM codec for type %T; implement core.Marshaler", zero))
	}
}

// argCodecFor resolves the codec a kernel's argument is decoded with:
// codecFor's, except that a []byte argument is a view of the message it
// arrived in (ham.Decoder.BytesView) rather than a copy. The view is the
// kernel's until it returns, the window in which Server.Dispatch holds the
// message; a result, and a Marshaler's fields, outlive it and stay copies.
func argCodecFor[T any]() valCodec[T] {
	c := codecFor[T]()
	if _, ok := any(*new(T)).([]byte); ok {
		c.dec = func(d *ham.Decoder) T { return any(d.BytesView()).(T) }
	}
	return c
}

// Unit is the result type of offloaded functions that return nothing.
type Unit struct{}

// Functor is a function with bound arguments, ready to offload — the result
// of the C++ f2f() call. Like f2f's functor it holds copies of the
// arguments, encoded when they are bound: the caller may reuse what it bound
// as soon as Bind returns, and one functor may be offloaded any number of
// times, to any number of nodes. On the target the kernel reads a []byte
// argument in the message itself (see NewFunc1).
type Functor[R any] struct {
	name   string
	decode func(*ham.Decoder) (R, error)
	args   boundArgs
}

// Name returns the registered function name the functor offloads.
func (f Functor[R]) Name() string { return f.name }

// argInline is how many bytes of encoded arguments a Functor holds in
// itself: four scalar arguments, or the widest request of bench/perf's
// sync-dma workload (an int64, a float64 and 40 bytes behind their length
// word), so binding them allocates nothing.
const argInline = 60

// boundArgs is a Functor's copy of its encoded arguments: in the inline
// array when they fit, otherwise in one buffer of their own.
type boundArgs struct {
	n      uint32
	inline [argInline]byte
	spill  []byte
}

// bytes returns the encoded arguments, the payload of the wire message.
func (a *boundArgs) bytes() []byte {
	if a.spill != nil {
		return a.spill
	}
	return a.inline[:a.n]
}

// argEncoders holds the encoders arguments are encoded with before they are
// copied into their Functor. The codecs are called through func values, so
// an encoder they write to lives on the heap; the pool reuses them.
var argEncoders = sync.Pool{New: func() any { return ham.NewEncoder() }}

// argKeep bounds the buffer an encoder may keep in the pool — the slot
// protocols' default message size. One that grew past it for a large Bind
// is let go.
const argKeep = 4096

// argEncoder returns an empty encoder for one Bind's arguments. Hand it to
// bound when they are written.
func argEncoder() *ham.Encoder {
	e := argEncoders.Get().(*ham.Encoder)
	e.Reset()
	return e
}

// bound copies the arguments e holds into a Functor's own storage and
// returns e to the pool.
func bound(e *ham.Encoder) boundArgs {
	var a boundArgs
	b := e.Bytes()
	if len(b) <= argInline {
		a.n = uint32(copy(a.inline[:], b))
	} else {
		a.spill = append([]byte(nil), b...)
	}
	if cap(b) <= argKeep {
		argEncoders.Put(e)
	}
	return a
}

// Issue offloads fn to node into f, a zero Future the caller owns and keeps
// at one address until it settles: into b's open frame when b is non-nil
// and the runtime batches, as a wire message of its own otherwise. It is
// the one issue path: Async and BatchAdd issue into a new Future, the
// gateway into the future its ticket embeds, the scheduler into a slab.
// With a tracer attached the offload lifecycle span opens here, and its
// closer is f's first settle hook. The result decoder rides beside f in the
// call's sink entry.
//
// An offload that cannot be encoded or posted — or whose frame fails to
// flush — fails f before Issue returns; f then keeps the settled sentinel
// rather than the call, which is already back in its pool.
func Issue[R any](rt *Runtime, b *Batcher, node NodeID, fn *Functor[R], f *Future[R]) {
	if rt.tr != nil {
		f.x = hookFunc(rt.beginOffload(node, fn.name))
	}
	var c *call
	if b == nil || !rt.batch.Enabled() {
		c = rt.callAsync(node, fn.name, fn.args.bytes(), sink{f, fn.decode})
	} else {
		wire, pd, fid, err := rt.encode(&b.enc, node, fn.name, fn.args.bytes())
		if err != nil {
			f.fail(err)
			return
		}
		c = b.add(node, wire, pd, fid, sink{f, fn.decode})
	}
	if !f.Done() {
		f.c = c
	}
}

// Async performs an asynchronous offload of fn to node, returning a future
// (Table II's async).
func Async[R any](rt *Runtime, node NodeID, fn Functor[R]) *Future[R] {
	f := new(Future[R])
	Issue(rt, nil, node, &fn, f)
	return f
}

// Sync performs a synchronous offload of fn to node (Table II's sync). It
// keeps no future: the call settles into the runtime's own sink and the
// result is decoded from the response in place, and the offload span closes
// once it is. A Sync issued while another synchronous offload is resolving
// takes the Async path instead.
func Sync[R any](rt *Runtime, node NodeID, fn Functor[R]) (R, error) {
	s := &rt.raw
	if s.busy {
		return Async(rt, node, fn).Get()
	}
	end := rt.beginOffload(node, fn.name)
	var v R
	dec, err := rt.resolveSync(s, node, fn.name, fn.args.bytes())
	if err == nil {
		v, err = fn.decode(dec)
	}
	s.busy = false
	end()
	return v, err
}

func resultDecoder[R any](rc valCodec[R]) func(*ham.Decoder) (R, error) {
	return func(d *ham.Decoder) (R, error) {
		v := rc.dec(d)
		return v, d.Err()
	}
}

// fnName namespaces user functions in the message table.
func fnName(name string) string { return "fn:" + name }

// Func0 is a registered offloadable function with no arguments.
type Func0[R any] struct {
	name   string
	decode func(*ham.Decoder) (R, error) // built once at registration, shared by every Bind
}

// NewFunc0 registers impl as an offloadable function. Registration must
// happen before the application's runtimes are created — package init
// functions are the natural place, mirroring C++ static initialisation.
func NewFunc0[R any](name string, impl func(*Ctx) (R, error)) Func0[R] {
	rc := codecFor[R]()
	ham.RegisterHandler(fnName(name), func(env any, dec *ham.Decoder, enc *ham.Encoder) error {
		r, err := impl(ctxOf(env))
		if err != nil {
			return err
		}
		rc.enc(enc, r)
		return nil
	})
	return Func0[R]{name: fnName(name), decode: resultDecoder(rc)}
}

// Bind produces the offloadable functor. It allocates nothing: there are
// no arguments to copy, and the result decoder is built at registration.
func (f Func0[R]) Bind() Functor[R] {
	return Functor[R]{name: f.name, decode: f.decode}
}

// Func1 is a registered offloadable function with one argument.
type Func1[R, A1 any] struct {
	name   string
	decode func(*ham.Decoder) (R, error)
	a1     valCodec[A1]
}

// NewFunc1 registers impl as an offloadable one-argument function.
//
// A []byte argument is borrowed: impl receives a view of the message it
// arrived in, capacity-clipped, and valid until impl returns. impl may read
// it, write it, append to it, return it as its result or bind it to another
// offload; to keep it past its return, impl copies it (bytes.Clone). Every
// other argument type is decoded into a copy impl owns. borrowck checks the
// contract statically (docs/LINTING.md).
func NewFunc1[R, A1 any](name string, impl func(*Ctx, A1) (R, error)) Func1[R, A1] {
	rc, a1 := codecFor[R](), argCodecFor[A1]()
	ham.RegisterHandler(fnName(name), func(env any, dec *ham.Decoder, enc *ham.Encoder) error {
		v1 := a1.dec(dec)
		if err := dec.Err(); err != nil {
			return err
		}
		r, err := impl(ctxOf(env), v1)
		if err != nil {
			return err
		}
		rc.enc(enc, r)
		return nil
	})
	return Func1[R, A1]{name: fnName(name), decode: resultDecoder(rc), a1: a1}
}

// Bind binds the argument, producing the offloadable functor: v1 is
// encoded now, into the functor's own storage.
func (f Func1[R, A1]) Bind(v1 A1) Functor[R] {
	e := argEncoder()
	f.a1.enc(e, v1)
	return Functor[R]{name: f.name, decode: f.decode, args: bound(e)}
}

// Func2 is a registered offloadable function with two arguments.
type Func2[R, A1, A2 any] struct {
	name   string
	decode func(*ham.Decoder) (R, error)
	a1     valCodec[A1]
	a2     valCodec[A2]
}

// NewFunc2 registers impl as an offloadable two-argument function. A []byte
// argument is a view of the message, valid until impl returns; every other
// argument is a copy impl owns (see NewFunc1).
func NewFunc2[R, A1, A2 any](name string, impl func(*Ctx, A1, A2) (R, error)) Func2[R, A1, A2] {
	rc, a1, a2 := codecFor[R](), argCodecFor[A1](), argCodecFor[A2]()
	ham.RegisterHandler(fnName(name), func(env any, dec *ham.Decoder, enc *ham.Encoder) error {
		v1 := a1.dec(dec)
		v2 := a2.dec(dec)
		if err := dec.Err(); err != nil {
			return err
		}
		r, err := impl(ctxOf(env), v1, v2)
		if err != nil {
			return err
		}
		rc.enc(enc, r)
		return nil
	})
	return Func2[R, A1, A2]{name: fnName(name), decode: resultDecoder(rc), a1: a1, a2: a2}
}

// Bind binds the arguments, producing the offloadable functor: they are
// encoded now, into the functor's own storage.
func (f Func2[R, A1, A2]) Bind(v1 A1, v2 A2) Functor[R] {
	e := argEncoder()
	f.a1.enc(e, v1)
	f.a2.enc(e, v2)
	return Functor[R]{name: f.name, decode: f.decode, args: bound(e)}
}

// Func3 is a registered offloadable function with three arguments.
type Func3[R, A1, A2, A3 any] struct {
	name   string
	decode func(*ham.Decoder) (R, error)
	a1     valCodec[A1]
	a2     valCodec[A2]
	a3     valCodec[A3]
}

// NewFunc3 registers impl as an offloadable three-argument function. A []byte
// argument is a view of the message, valid until impl returns; every other
// argument is a copy impl owns (see NewFunc1).
func NewFunc3[R, A1, A2, A3 any](name string, impl func(*Ctx, A1, A2, A3) (R, error)) Func3[R, A1, A2, A3] {
	rc, a1, a2, a3 := codecFor[R](), argCodecFor[A1](), argCodecFor[A2](), argCodecFor[A3]()
	ham.RegisterHandler(fnName(name), func(env any, dec *ham.Decoder, enc *ham.Encoder) error {
		v1 := a1.dec(dec)
		v2 := a2.dec(dec)
		v3 := a3.dec(dec)
		if err := dec.Err(); err != nil {
			return err
		}
		r, err := impl(ctxOf(env), v1, v2, v3)
		if err != nil {
			return err
		}
		rc.enc(enc, r)
		return nil
	})
	return Func3[R, A1, A2, A3]{name: fnName(name), decode: resultDecoder(rc), a1: a1, a2: a2, a3: a3}
}

// Bind binds the arguments, producing the offloadable functor: they are
// encoded now, into the functor's own storage.
func (f Func3[R, A1, A2, A3]) Bind(v1 A1, v2 A2, v3 A3) Functor[R] {
	e := argEncoder()
	f.a1.enc(e, v1)
	f.a2.enc(e, v2)
	f.a3.enc(e, v3)
	return Functor[R]{name: f.name, decode: f.decode, args: bound(e)}
}

// Func4 is a registered offloadable function with four arguments.
type Func4[R, A1, A2, A3, A4 any] struct {
	name   string
	decode func(*ham.Decoder) (R, error)
	a1     valCodec[A1]
	a2     valCodec[A2]
	a3     valCodec[A3]
	a4     valCodec[A4]
}

// NewFunc4 registers impl as an offloadable four-argument function. A []byte
// argument is a view of the message, valid until impl returns; every other
// argument is a copy impl owns (see NewFunc1).
func NewFunc4[R, A1, A2, A3, A4 any](name string, impl func(*Ctx, A1, A2, A3, A4) (R, error)) Func4[R, A1, A2, A3, A4] {
	rc, a1, a2, a3, a4 := codecFor[R](), argCodecFor[A1](), argCodecFor[A2](), argCodecFor[A3](), argCodecFor[A4]()
	ham.RegisterHandler(fnName(name), func(env any, dec *ham.Decoder, enc *ham.Encoder) error {
		v1 := a1.dec(dec)
		v2 := a2.dec(dec)
		v3 := a3.dec(dec)
		v4 := a4.dec(dec)
		if err := dec.Err(); err != nil {
			return err
		}
		r, err := impl(ctxOf(env), v1, v2, v3, v4)
		if err != nil {
			return err
		}
		rc.enc(enc, r)
		return nil
	})
	return Func4[R, A1, A2, A3, A4]{name: fnName(name), decode: resultDecoder(rc), a1: a1, a2: a2, a3: a3, a4: a4}
}

// Bind binds the arguments, producing the offloadable functor: they are
// encoded now, into the functor's own storage.
func (f Func4[R, A1, A2, A3, A4]) Bind(v1 A1, v2 A2, v3 A3, v4 A4) Functor[R] {
	e := argEncoder()
	f.a1.enc(e, v1)
	f.a2.enc(e, v2)
	f.a3.enc(e, v3)
	f.a4.enc(e, v4)
	return Functor[R]{name: f.name, decode: f.decode, args: bound(e)}
}

// AsyncAll offloads one functor to each listed node and returns the futures
// in node order — the fan-out idiom of multi-VE applications (Table II's
// async, vectorised over targets).
func AsyncAll[R any](rt *Runtime, nodes []NodeID, fn Functor[R]) []*Future[R] {
	futs := make([]*Future[R], len(nodes))
	for i, n := range nodes {
		futs[i] = Async(rt, n, fn)
	}
	return futs
}

// GetAll collects every future, returning the results in order and the
// first error encountered (after draining all futures, so no offload is
// left dangling).
func GetAll[R any](futs []*Future[R]) ([]R, error) {
	out := make([]R, len(futs))
	var firstErr error
	for i, f := range futs {
		v, err := f.Get()
		out[i] = v
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return out, firstErr
}
