package core

import (
	"bytes"
	"sync"
	"testing"

	"hamoffload/internal/ham"
)

// Allocation guards for the zero-alloc hot paths that docs/LINTING.md's
// hotalloc analyzer protects statically: the analyzer proves no *new*
// allocation sites sneak onto the paths, these tests prove the existing
// machinery (scratch codecs, frame arenas, the call pool) really
// reaches zero allocations per event at run time. The two must agree — a
// regression in either fails the build.
//
// The argument and result values stay below 256 on purpose: the generic
// codecs box them through `any`, and Go only guarantees allocation-free
// boxing for small integers.

var fnAllocInc = NewFunc1[int64]("test.allocinc",
	func(_ *Ctx, v int64) (int64, error) { return v + 1, nil })

// allocBackend is a synchronous in-process Backend stub: Call dispatches on
// the target runtime immediately and Wait/Poll hand the response back. It
// honours the Backend contract trivially — the message is fully consumed
// (dispatched) before Call returns — and adds no allocations of its own.
type allocBackend struct {
	target *Runtime
	resp   []byte
}

func (b *allocBackend) Self() NodeID  { return 0 }
func (b *allocBackend) NumNodes() int { return 2 }
func (b *allocBackend) Descriptor(NodeID) NodeDescriptor {
	return NodeDescriptor{Name: "alloc-stub"}
}

func (b *allocBackend) Call(target NodeID, msg []byte) (Handle, error) {
	b.resp = b.target.Dispatch(msg)
	return b, nil
}

func (b *allocBackend) Wait(Handle) ([]byte, error)       { return b.resp, nil }
func (b *allocBackend) Poll(Handle) ([]byte, bool, error) { return b.resp, true, nil }
func (b *allocBackend) Put(NodeID, []byte, uint64) error  { return nil }
func (b *allocBackend) Get(NodeID, uint64, []byte) error  { return nil }
func (b *allocBackend) Serve(Server) error                { return nil }
func (b *allocBackend) Memory() LocalMemory               { return nil }
func (b *allocBackend) Clock() Clock                      { return WallClock }
func (b *allocBackend) MaxMessageLen() int                { return 1 << 20 }
func (b *allocBackend) RecoverNode(NodeID) error          { return ErrUnsupported }
func (b *allocBackend) Close() error                      { return nil }

// TestDispatchZeroAlloc pins the un-armed target fast path — Dispatch of a
// bare HAM message with tracing, telemetry, FT and batching all off — at
// exactly zero allocations per message. This is the path every simulated
// event crosses, so a single allocation here multiplies by the event count
// of a benchmark run.
func TestDispatchZeroAlloc(t *testing.T) {
	bk := &allocBackend{}
	rt := NewRuntime(bk, "alloc-arch-dispatch")
	bk.target = rt

	fn := fnAllocInc.Bind(41)
	msg := requestWire(t, rt, fn)
	var resp []byte
	allocs := testing.AllocsPerRun(200, func() {
		resp = rt.Dispatch(msg)
	})
	v, err := func() (int64, error) {
		dec, err := ham.DecodeResponse(resp)
		if err != nil {
			return 0, err
		}
		return fn.decode(dec)
	}()
	if err != nil || v != 42 {
		t.Fatalf("dispatch result = %d, %v; want 42, nil", v, err)
	}
	if allocs != 0 {
		t.Errorf("un-armed Dispatch allocates %.1f times per message; the fast path is contractually zero-alloc (see docs/LINTING.md)", allocs)
	}
}

// TestBatchFlushZeroAlloc pins the batch flush-and-settle cycle — frame
// arena stamp, backend post, target-side batch dispatch, response split,
// future settlement, call recycling — at zero allocations once warm. The
// futures are rewound and re-queued through Batcher.add, the part of BatchAdd
// behind the encode, because BatchAdd's one future per offload is an
// intentional, allowed allocation and would drown the signal this test
// watches.
func TestBatchFlushZeroAlloc(t *testing.T) {
	tbk := &allocBackend{}
	target := NewRuntime(tbk, "alloc-arch-batch-t")
	tbk.target = target
	hbk := &allocBackend{target: target}
	host := NewRuntime(hbk, "alloc-arch-batch-h")
	host.SetBatching(BatchPolicy{MaxMessages: 8})

	b := NewBatcher(host)
	fn := fnAllocInc.Bind(41)
	wire := requestWire(t, host, fn)
	fu1 := &Future[int64]{rt: host, decode: fn.decode}
	fu2 := &Future[int64]{rt: host, decode: fn.decode}

	var gotV int64
	var gotErr error
	cycle := func() {
		requeue(b, wire, fu1)
		requeue(b, wire, fu2)
		b.Flush(1)
		gotV, gotErr = fu1.Get()
		fu2.Get()
	}
	// One explicit warm cycle (besides AllocsPerRun's own) grows every
	// scratch buffer and fills the call pool.
	cycle()
	if gotErr != nil || gotV != 42 {
		t.Fatalf("batched result = %d, %v; want 42, nil", gotV, gotErr)
	}
	allocs := testing.AllocsPerRun(100, cycle)
	if gotErr != nil || gotV != 42 {
		t.Fatalf("batched result = %d, %v; want 42, nil", gotV, gotErr)
	}
	if allocs != 0 {
		t.Errorf("batch flush+settle allocates %.1f times per frame; the warm cycle is contractually zero-alloc (see docs/LINTING.md)", allocs)
	}
}

// countHook counts its settlements.
type countHook struct{ n int }

func (h *countHook) FutureSettled() { h.n++ }

// TestChainedOnSettleZeroAlloc: a second settle hook on a future that
// already has one — the scheduler's taskHook, then the caller's OnSettle —
// chains through a node of the runtime's free list, so once warm the
// registration, the settle and both hooks allocate nothing.
func TestChainedOnSettleZeroAlloc(t *testing.T) {
	tbk := &allocBackend{}
	target := NewRuntime(tbk, "alloc-arch-chain-t")
	tbk.target = target
	host := NewRuntime(&allocBackend{target: target}, "alloc-arch-chain-h")

	fn := fnAllocInc.Bind(41)
	f := new(Future[int64])
	first, calls := &countHook{}, 0
	then := func() { calls++ }
	var gotV int64
	var gotErr error
	cycle := func() {
		*f = Future[int64]{}
		Issue(host, nil, 1, &fn, f)
		f.OnSettleHook(first)
		f.OnSettle(then)
		gotV, gotErr = f.Get()
	}
	cycle() // takes the chain node the runs below recycle
	allocs := testing.AllocsPerRun(100, cycle)
	if gotErr != nil || gotV != 42 {
		t.Fatalf("result = %d, %v; want 42, nil", gotV, gotErr)
	}
	if first.n != 102 || calls != 102 {
		t.Fatalf("hooks ran %d and %d times over 102 settles", first.n, calls)
	}
	if allocs != 0 {
		t.Errorf("a chained OnSettle allocates %.1f objects per future, want 0", allocs)
	}
}

// requestWire encodes fn's request message on rt, as an offload of it does.
func requestWire[R any](t *testing.T, rt *Runtime, fn Functor[R]) []byte {
	t.Helper()
	msg, err := rt.bin.EncodeRequestTo(ham.NewEncoder(), fn.name, fn.args.bytes())
	if err != nil {
		t.Fatal(err)
	}
	return msg
}

// requeue rewinds a settled future and queues it on b for node 1 the way
// BatchAdd does once the wire message is built.
func requeue(b *Batcher, wire []byte, f *Future[int64]) {
	f.done, f.val, f.err = false, 0, nil
	f.c = b.add(1, wire, nil, 0, f)
}

// parkedCalls walks rt's free list.
func parkedCalls(rt *Runtime) []*call {
	var out []*call
	for c := rt.freeCall; c != nil; c = c.next {
		out = append(out, c)
	}
	return out
}

var fnAllocAdd = NewFunc2[int64]("test.allocadd",
	func(_ *Ctx, a, b int64) (int64, error) { return a + b, nil })

var fnAllocNone = NewFunc0[int64]("test.allocnone",
	func(*Ctx) (int64, error) { return 7, nil })

// TestBindAllocs pins Bind at zero allocations: the arguments are encoded
// into the functor's inline storage (the result decoder is built once, at
// registration), and only arguments past that capacity take one buffer.
func TestBindAllocs(t *testing.T) {
	var f0 Functor[int64]
	if n := testing.AllocsPerRun(100, func() { f0 = fnAllocNone.Bind() }); n != 0 {
		t.Errorf("Func0.Bind allocates %.1f objects, want 0", n)
	}
	if n := len(f0.args.bytes()); n != 0 {
		t.Errorf("a no-argument functor carries %d bytes of arguments", n)
	}
	var fn Functor[int64]
	if n := testing.AllocsPerRun(100, func() { fn = fnAllocAdd.Bind(40, 2) }); n != 0 {
		t.Errorf("Func2.Bind allocates %.1f objects, want 0", n)
	}
	dec := ham.NewDecoder(fn.args.bytes())
	if a, b := dec.I64(), dec.I64(); a != 40 || b != 2 || dec.Err() != nil || dec.Remaining() != 0 {
		t.Fatalf("bound arguments encode as %d, %d (%v, %d left); want 40, 2", a, b, dec.Err(), dec.Remaining())
	}
	big := make([]byte, argInline)
	var fb Functor[int64]
	if n := testing.AllocsPerRun(100, func() { fb = fnAllocBytes.Bind(big) }); n != 1 {
		t.Errorf("Bind of %d argument bytes allocates %.1f objects, want 1", 4+len(big), n)
	}
	if got := len(fb.args.bytes()); got != 4+len(big) || fb.args.spill == nil {
		t.Errorf("a spilled functor carries %d bytes (spilled %v), want %d", got, fb.args.spill != nil, 4+len(big))
	}
}

var fnAllocBytes = NewFunc1[int64]("test.allocbytes",
	func(_ *Ctx, b []byte) (int64, error) { return int64(len(b)), nil })

// TestBindConcurrent binds from several goroutines at once, as the
// wall-clock backends' callers may: each encoder comes from the pool to one
// Bind alone, so every functor carries its own arguments. Run it with -race.
func TestBindConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 500 {
				a, b := int64(g), int64(i)
				fn := fnAllocAdd.Bind(a, b)
				big := fnAllocBytes.Bind(bytes.Repeat([]byte{byte(g)}, argInline+i%8))
				dec := ham.NewDecoder(fn.args.bytes())
				if x, y := dec.I64(), dec.I64(); x != a || y != b {
					t.Errorf("goroutine %d, bind %d: arguments %d, %d", g, i, x, y)
					return
				}
				if got := ham.NewDecoder(big.args.bytes()).Bytes(); !bytes.Equal(got, bytes.Repeat([]byte{byte(g)}, argInline+i%8)) {
					t.Errorf("goroutine %d, bind %d: spilled arguments %x", g, i, got)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestBatchFramesInFlightZeroAlloc keeps several frames open at once, the
// way the gateway does (up to Window frames per VE): every one of them must
// come back through the free list, so a warm cycle of frames allocates
// nothing. A single recycling slot would serve one frame of each wave and
// allocate a call object, plus its regrown arrays, for every other.
func TestBatchFramesInFlightZeroAlloc(t *testing.T) {
	const frames = 6
	tbk := &allocBackend{}
	target := NewRuntime(tbk, "alloc-arch-inflight-t")
	tbk.target = target
	hbk := &frameBackend{target: target, store: make([][]byte, frames)}
	host := NewRuntime(hbk, "alloc-arch-inflight-h")
	host.SetBatching(BatchPolicy{MaxMessages: 8})

	b := NewBatcher(host)
	fn := fnAllocInc.Bind(41)
	wire := requestWire(t, host, fn)
	var futs [frames]*Future[int64]
	for i := range futs {
		futs[i] = &Future[int64]{rt: host, decode: fn.decode}
	}
	cycle := func() {
		for _, f := range futs {
			requeue(b, wire, f)
			b.Flush(1) // one frame per future, all left in flight
		}
		for _, f := range futs {
			if v, err := f.Get(); v != 42 || err != nil {
				t.Fatalf("batched result = %d, %v; want 42, nil", v, err)
			}
		}
	}
	cycle()
	if parked := len(parkedCalls(host)); parked != frames {
		t.Fatalf("free list holds %d calls after %d frames in flight, want %d", parked, frames, frames)
	}
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Errorf("a warm wave of %d in-flight frames allocates %.1f objects, want 0", frames, allocs)
	}
}

// frameBackend is allocBackend for several outstanding calls: each Call's
// response is copied into one of a ring of reused buffers and handed back
// when its handle asks.
type frameBackend struct {
	allocBackend
	target *Runtime
	store  [][]byte
	calls  int
}

func (b *frameBackend) Call(_ NodeID, msg []byte) (Handle, error) {
	slot := &b.store[b.calls%len(b.store)]
	b.calls++
	*slot = append((*slot)[:0], b.target.Dispatch(msg)...)
	return slot, nil
}

func (b *frameBackend) Wait(h Handle) ([]byte, error) { return *h.(*[]byte), nil }
