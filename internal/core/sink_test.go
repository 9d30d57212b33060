package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"hamoffload/internal/ham"
	"hamoffload/internal/trace"
)

// This file tests what a future leaves to its call: the result decoder
// rides in the call's sink entry, so one frame carries futures of any mix of
// result types, and "done" is the settled sentinel, so a future that fails
// while Issue runs must stay settled rather than take the call back.

// mixPoint is a Marshaler result type.
type mixPoint struct{ X, Y int32 }

func (p *mixPoint) EncodeHAM(e *ham.Encoder) { e.PutU32(uint32(p.X)); e.PutU32(uint32(p.Y)) }
func (p *mixPoint) DecodeHAM(d *ham.Decoder) { p.X, p.Y = int32(d.U32()), int32(d.U32()) }

var (
	fnMixInt = NewFunc1[int64]("test.mix.int",
		func(_ *Ctx, v int64) (int64, error) { return 2 * v, nil })
	fnMixFloat = NewFunc1[float64]("test.mix.float",
		func(_ *Ctx, v int64) (float64, error) { return float64(v) / 4, nil })
	fnMixString = NewFunc1[string]("test.mix.string",
		func(_ *Ctx, v int64) (string, error) { return fmt.Sprintf("s%d", v), nil })
	fnMixBytes = NewFunc1[[]byte]("test.mix.bytes",
		func(_ *Ctx, v int64) ([]byte, error) { return bytes.Repeat([]byte{byte(v)}, int(v%5)+1), nil })
	fnMixPoint = NewFunc1[mixPoint]("test.mix.point",
		func(_ *Ctx, v int64) (mixPoint, error) { return mixPoint{int32(v), -int32(v)}, nil })
	fnMixUnit = NewFunc1[Unit]("test.mix.unit",
		func(_ *Ctx, v int64) (Unit, error) { return Unit{}, nil })
)

// mixKind is one result type of a mixed frame: add queues an offload of v
// returning it and hands back the future's Get and the value it must yield.
type mixKind struct {
	name string
	add  func(b *Batcher, node NodeID, v int64) (get func() (any, error), want any)
}

func mixOf[R any](name string, fn Func1[R, int64], want func(int64) R) mixKind {
	return mixKind{name, func(b *Batcher, node NodeID, v int64) (func() (any, error), any) {
		f := BatchAdd(b, node, fn.Bind(v))
		return func() (any, error) { r, err := f.Get(); return r, err }, want(v)
	}}
}

var mixKinds = []mixKind{
	mixOf("int64", fnMixInt, func(v int64) int64 { return 2 * v }),
	mixOf("float64", fnMixFloat, func(v int64) float64 { return float64(v) / 4 }),
	mixOf("string", fnMixString, func(v int64) string { return fmt.Sprintf("s%d", v) }),
	mixOf("[]byte", fnMixBytes, func(v int64) []byte { return bytes.Repeat([]byte{byte(v)}, int(v%5)+1) }),
	mixOf("Marshaler", fnMixPoint, func(v int64) mixPoint { return mixPoint{int32(v), -int32(v)} }),
	mixOf("Unit", fnMixUnit, func(int64) Unit { return Unit{} }),
}

// TestMixedResultTypesShareAFrame puts two futures of each result type into
// one batch frame. Each entry decodes with the decoder its own sink entry
// carries — cleanly, after the frame's fault-tolerance retry, and not at all
// when an unframed failure response settles every sink at once.
func TestMixedResultTypesShareAFrame(t *testing.T) {
	for _, tc := range []struct {
		name     string
		ft       bool
		script   []step
		retries  int64
		failText string // every future fails with this text; "" = every value arrives
	}{
		{name: "clean"},
		{name: "transient then retried", ft: true, script: []step{{waitErr: transientErr{}}}, retries: 1},
		{name: "corrupt entry then retried", ft: true, script: []step{{mangle: emptyFirst}}, retries: 1},
		{name: "unframed failure", script: []step{{mangle: plainFailure}}, failText: "unparseable request"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt, _ := scriptRuntime(newScriptBackend(tc.script...), tc.ft)
			rt.SetBatching(BatchPolicy{MaxMessages: 64})
			b := NewBatcher(rt)
			n := 2 * len(mixKinds)
			gets, wants := make([]func() (any, error), n), make([]any, n)
			for v := range n {
				gets[v], wants[v] = mixKinds[v%len(mixKinds)].add(b, 1, int64(v))
			}
			if got := b.Pending(1); got != n {
				t.Fatalf("%d entries queued in the open frame, want %d", got, n)
			}
			b.Flush(1)
			for v, get := range gets {
				kind := mixKinds[v%len(mixKinds)].name
				got, err := get()
				switch {
				case tc.failText != "":
					if err == nil || !strings.Contains(err.Error(), tc.failText) {
						t.Errorf("%s entry %d: error %v, want one carrying %q", kind, v, err, tc.failText)
					}
				case err != nil || !reflect.DeepEqual(got, wants[v]):
					t.Errorf("%s entry %d = %v, %v; want %v", kind, v, got, err, wants[v])
				}
			}
			if rt.Retries() != tc.retries {
				t.Errorf("Retries() = %d, want %d", rt.Retries(), tc.retries)
			}
			if open := rt.OpenCalls(); open != 0 {
				t.Errorf("OpenCalls() = %d with every future settled", open)
			}
		})
	}
}

// errRefusedLong is refusingBackend's answer to an oversized message.
var errRefusedLong = errors.New("refusing stub: message longer than MaxMessageLen")

// refusingBackend is the scripted backend with a slot backend's synchronous
// refusals: a message longer than maxLen, and any message to node down. It
// counts the Polls and Waits that reach it.
type refusingBackend struct {
	scriptBackend
	maxLen  int
	down    NodeID
	touches int
}

func (b *refusingBackend) MaxMessageLen() int { return b.maxLen }

func (b *refusingBackend) Call(target NodeID, msg []byte) (Handle, error) {
	if target == b.down {
		return nil, fmt.Errorf("refusing stub: node %d: %w", target, ErrNodeFailed)
	}
	if len(msg) > b.maxLen {
		return nil, errRefusedLong
	}
	return b.scriptBackend.Call(target, msg)
}

func (b *refusingBackend) Wait(h Handle) ([]byte, error) {
	b.touches++
	return b.scriptBackend.Wait(h)
}

func (b *refusingBackend) Poll(h Handle) ([]byte, bool, error) {
	b.touches++
	return b.scriptBackend.Poll(h)
}

// TestSyncFailureStaysSettled fails an offload while Issue runs — an encode
// error, a refused post of an oversized message, a post to a node that is
// down — on the Async path and on the batch path, where the oversized
// message ships as a frame of one at once. The future is done before Issue
// returns, Get returns the error, and neither Test nor Get reaches a call:
// the failed call is back on the free list, and the next offload, still in
// flight, has taken it. A hook registered afterwards runs exactly once.
func TestSyncFailureStaysSettled(t *testing.T) {
	big := fnAllocBytes.Bind(make([]byte, 300))
	for _, path := range []struct {
		name  string
		batch bool
	}{{"Async", false}, {"BatchAdd", true}} {
		for _, tc := range []struct {
			name string
			node NodeID
			fn   Functor[int64]
			want error
		}{
			{"message too long", 1, big, errRefusedLong},
			{"node down", 2, fnAllocInc.Bind(1), ErrNodeFailed},
			{"no such node", 7, fnAllocInc.Bind(1), nil},
		} {
			name := path.name + "/" + tc.name
			bk := &refusingBackend{scriptBackend: *newScriptBackend(), maxLen: 256, down: 2}
			rt := NewRuntime(bk, "refuse-arch-host")
			rt.SetTracer(trace.NewTracer().Node(0, "refuse", WallClock))
			var b *Batcher
			if path.batch {
				rt.SetBatching(BatchPolicy{MaxMessages: 1})
				b = NewBatcher(rt)
			}
			f := new(Future[int64])
			Issue(rt, b, tc.node, &tc.fn, f)
			if !f.Done() {
				t.Fatalf("%s: future not done after a synchronous failure", name)
			}
			// The next offload takes the failed one's call off the free list
			// and stays in flight while the failed future is asked again.
			next := Async(rt, 1, fnAllocInc.Bind(41))
			if !f.Test() || !f.Done() {
				t.Errorf("%s: Test() or Done() reports the failed future in flight", name)
			}
			_, err := f.Get()
			if err == nil || (tc.want != nil && !errors.Is(err, tc.want)) {
				t.Errorf("%s: Get() = %v, want %v", name, err, tc.want)
			}
			if bk.touches != 0 {
				t.Errorf("%s: Test or Get of the failed future reached a call (%d Polls and Waits)", name, bk.touches)
			}
			h := &countHook{}
			f.OnSettleHook(h)
			f.Test()
			f.Get()
			if h.n != 1 {
				t.Errorf("%s: a hook registered after the failure ran %d times, want 1", name, h.n)
			}
			if v, err := next.Get(); v != 42 || err != nil {
				t.Errorf("%s: the next offload = %d, %v; want 42", name, v, err)
			}
			if open := rt.OpenCalls(); open != 0 {
				t.Errorf("%s: OpenCalls() = %d with every future settled", name, open)
			}
		}
	}
}
