package core

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"hamoffload/internal/ham"
	"hamoffload/internal/trace"
)

// Allocation pins for the request path (docs/LINTING.md, "Allocation
// pins"): each pins a warm path at its exact allocation count, so the
// machinery (scratch codecs, frame arenas, the call pool) is seen to reach
// it at run time, and one allocation more on the path fails the build.
// internal/mutants/mutants.txt holds a mutant per pinned path that must fail
// its pin.
//
// The generic codecs convert through `any` (any(v).(int64)), which the
// compiler keeps off the heap for values of any size: the pins use large
// ones on purpose.

// TestRecordSizes pins the three records the runtime's free lists hand out,
// the future and the functor. Each list grows to the peak taken at once and
// no further, so a field added to a record costs its bytes once per record
// in flight, not per request; the pin makes that cost a deliberate change. A
// future is per request: it is embedded in a gateway ticket or a MapFutures
// task, so its bytes are every request's, and so are a queued gateway
// request's functor's.
func TestRecordSizes(t *testing.T) {
	for _, r := range []struct {
		name      string
		got, want uintptr
	}{
		{"call", unsafe.Sizeof(call{}), 240},
		{"hookChain", unsafe.Sizeof(hookChain{}), 48},
		{"Batcher", unsafe.Sizeof(Batcher{}), 120},
		{"Future[int64]", unsafe.Sizeof(Future[int64]{}), 32},
		{"Functor[int64]", unsafe.Sizeof(Functor[int64]{}), 104},
	} {
		if r.got != r.want {
			t.Errorf("%s is %d B, want %d", r.name, r.got, r.want)
		}
	}
}

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
// of a benchmark run. A []byte argument is no exception: the kernel reads it
// in the message.
func TestDispatchZeroAlloc(t *testing.T) {
	bk := &allocBackend{}
	rt := NewRuntime(bk, "alloc-arch-dispatch")
	bk.target = rt

	for _, tc := range []struct {
		name string
		fn   Functor[int64]
		want int64
	}{
		{"int64", fnAllocInc.Bind(1 << 40), 1<<40 + 1},
		{"[]byte", fnAllocBytes.Bind(bytes.Repeat([]byte{0x5a}, 40)), 40},
	} {
		msg := requestWire(t, rt, tc.fn)
		var resp []byte
		allocs := testing.AllocsPerRun(200, func() {
			resp = rt.Dispatch(msg)
		})
		v, err := func() (int64, error) {
			dec, err := ham.DecodeResponse(resp)
			if err != nil {
				return 0, err
			}
			return tc.fn.decode(dec)
		}()
		if err != nil || v != tc.want {
			t.Fatalf("%s: dispatch result = %d, %v; want %d, nil", tc.name, v, err, tc.want)
		}
		if allocs != 0 {
			t.Errorf("un-armed Dispatch of a %s kernel allocates %.1f times per message; the fast path is contractually zero-alloc (see docs/LINTING.md)", tc.name, allocs)
		}
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
	fu1, fu2 := new(Future[int64]), new(Future[int64])

	var gotV int64
	var gotErr error
	cycle := func() {
		requeue(b, wire, fn, fu1)
		requeue(b, wire, fn, fu2)
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

// TestAsyncBatchAllocs: AsyncBatch takes one of the runtime's pooled
// batchers and releases it, so a warm call allocates its futures and the
// slice it returns, nothing more.
func TestAsyncBatchAllocs(t *testing.T) {
	tbk := &allocBackend{}
	target := NewRuntime(tbk, "alloc-arch-asyncbatch-t")
	tbk.target = target
	host := NewRuntime(&allocBackend{target: target}, "alloc-arch-asyncbatch-h")
	host.SetBatching(BatchPolicy{MaxMessages: 8})
	fns := []Functor[int64]{fnAllocInc.Bind(1), fnAllocInc.Bind(2), fnAllocInc.Bind(3)}
	cycle := func() {
		for i, f := range AsyncBatch(host, 1, fns) {
			if v, err := f.Get(); v != int64(i+2) || err != nil {
				t.Fatalf("future %d = %d, %v; want %d", i, v, err, i+2)
			}
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != float64(len(fns)+1) {
		t.Errorf("a warm AsyncBatch of %d allocates %.1f objects, want %d: its futures and their slice", len(fns), n, len(fns)+1)
	}
	if live, parked := host.batchers.Live(), len(slices.Collect(host.batchers.Parked())); live != 0 || parked != 1 {
		t.Errorf("%d batchers taken and %d parked after the calls returned, want 0 and 1", live, parked)
	}
}

// countHook counts its settlements.
type countHook struct{ n int }

func (h *countHook) FutureSettled() { h.n++ }

// TestChainedOnSettleZeroAlloc: a second settle hook on a future that
// already has one — the scheduler's slab task, then the caller's OnSettle —
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
func requestWire[R any](t testing.TB, rt *Runtime, fn Functor[R]) []byte {
	t.Helper()
	msg, err := rt.bin.EncodeRequestTo(ham.NewEncoder(), fn.mt.typ, fn.args.bytes())
	if err != nil {
		t.Fatal(err)
	}
	return msg
}

// requeue rewinds a settled future and queues it on b for node 1 the way
// Issue does once the wire message is built: fn's decoder rides in the
// sink entry, and f takes the call unless the add already settled it.
func requeue(b *Batcher, wire []byte, fn Functor[int64], f *Future[int64]) {
	*f = Future[int64]{}
	if c := b.add(1, wire, nil, 0, sink{f, fn.decode}); !f.Done() {
		f.c = c
	}
}

// parkedCalls lists rt's parked calls.
func parkedCalls(rt *Runtime) []*call { return slices.Collect(rt.calls.Parked()) }

var fnAllocAdd = NewFunc2[int64]("test.allocadd",
	func(_ *Ctx, a, b int64) (int64, error) { return a + b, nil })

var fnAllocNone = NewFunc0[int64]("test.allocnone",
	func(*Ctx) (int64, error) { return 7, nil })

var fnAllocMix3 = NewFunc3[int64]("test.allocmix3",
	func(_ *Ctx, a int64, b float64, c []byte) (int64, error) { return a + int64(b) + int64(len(c)), nil })

var fnAllocMix4 = NewFunc4[int64]("test.allocmix4",
	func(_ *Ctx, a, b int64, c float64, d []byte) (int64, error) {
		return a + b + int64(c) + int64(len(d)), nil
	})

// TestBindAllocs pins Bind at zero allocations for every arity: the
// arguments are encoded into the functor's inline storage (the result
// decoder is built once, at registration), and only arguments past that
// capacity take one buffer.
func TestBindAllocs(t *testing.T) {
	pay := []byte("twelve bytes")
	big := make([]byte, argInline)
	for _, tc := range []struct {
		name   string
		bind   func() Functor[int64]
		args   int // encoded argument bytes
		allocs float64
	}{
		{"Func0", func() Functor[int64] { return fnAllocNone.Bind() }, 0, 0},
		{"Func1", func() Functor[int64] { return fnAllocInc.Bind(40) }, 8, 0},
		{"Func2", func() Functor[int64] { return fnAllocAdd.Bind(40, 2) }, 16, 0},
		{"Func3", func() Functor[int64] { return fnAllocMix3.Bind(40, 2.5, pay) }, 16 + 4 + len(pay), 0},
		{"Func4", func() Functor[int64] { return fnAllocMix4.Bind(40, 2, 2.5, pay) }, 24 + 4 + len(pay), 0},
		{"Func1 spilled", func() Functor[int64] { return fnAllocBytes.Bind(big) }, 4 + len(big), 1},
	} {
		var fn Functor[int64]
		if n := testing.AllocsPerRun(100, func() { fn = tc.bind() }); n != tc.allocs {
			t.Errorf("%s.Bind allocates %.1f objects, want %.0f", tc.name, n, tc.allocs)
		}
		if got := len(fn.args.bytes()); got != tc.args || (fn.args.spill != nil) != (tc.allocs == 1) {
			t.Errorf("%s: the functor carries %d argument bytes (spilled %v), want %d", tc.name, got, fn.args.spill != nil, tc.args)
		}
	}
	fn := fnAllocAdd.Bind(40, 2)
	dec := ham.NewDecoder(fn.args.bytes())
	if a, b := dec.I64(), dec.I64(); a != 40 || b != 2 || dec.Err() != nil || dec.Remaining() != 0 {
		t.Fatalf("bound arguments encode as %d, %d (%v, %d left); want 40, 2", a, b, dec.Err(), dec.Remaining())
	}
}

// TestAsyncAllocs pins a bare Async at its future, the one object the call
// returns: the message, the call and its settle all come from scratch.
func TestAsyncAllocs(t *testing.T) {
	tbk := &allocBackend{}
	target := NewRuntime(tbk, "alloc-arch-async-t")
	tbk.target = target
	host := NewRuntime(&allocBackend{target: target}, "alloc-arch-async-h")
	fn := fnAllocInc.Bind(41)
	var v int64
	var err error
	cycle := func() { v, err = Async(host, 1, fn).Get() }
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 1 {
		t.Errorf("a warm Async allocates %.1f objects, want 1: its future", n)
	}
	if v != 42 || err != nil {
		t.Fatalf("Async result = %d, %v; want 42, nil", v, err)
	}
}

// lossyBackend is allocBackend whose every other response is lost to a
// transient failure, so the call re-posts. A timeout would not do: it is
// permanent (IsTransient).
type lossyBackend struct {
	allocBackend
	calls int
}

func (b *lossyBackend) Call(target NodeID, msg []byte) (Handle, error) {
	b.calls++
	b.resp = b.target.Dispatch(msg)
	return b.calls%2 == 1, nil
}

func (b *lossyBackend) Wait(h Handle) ([]byte, error) {
	if h.(bool) {
		return nil, errLost
	}
	return b.resp, nil
}

func (b *lossyBackend) Poll(h Handle) ([]byte, bool, error) {
	resp, err := b.Wait(h)
	return resp, err == nil, err
}

var errLost = fmt.Errorf("lost response: %w", ErrPayloadCorrupt)

// TestRetryAllocs pins a warm Sync whose first response is lost and whose
// re-post (call.retry, then Runtime.resubmit) succeeds under fault
// tolerance. It allocates what FT keeps per offload — the pending record,
// its sealed request and the target's sealed response, which the target's
// dedup window keeps — and nothing for the re-post: the retry's trace label
// is formatted only when a tracer is armed.
func TestRetryAllocs(t *testing.T) {
	tbk := &allocBackend{}
	target := NewRuntime(tbk, "alloc-arch-retry-t")
	tbk.target = target
	hbk := &lossyBackend{allocBackend: allocBackend{target: target}}
	host := NewRuntime(hbk, "alloc-arch-retry-h")
	host.SetFaultTolerance(FaultTolerance{MaxRetries: 1})
	fn := fnAllocInc.Bind(41)
	var v int64
	var err error
	cycle := func() { v, err = Sync(host, 1, fn) }
	cycle()
	before := host.Retries()
	n := testing.AllocsPerRun(100, cycle)
	if v != 42 || err != nil {
		t.Fatalf("Sync result = %d, %v; want 42, nil", v, err)
	}
	if got := host.Retries() - before; got != 101 {
		t.Fatalf("%d retries over 101 calls, want one each", got)
	}
	if n != 3 {
		t.Errorf("a warm Sync that re-posts once allocates %.1f objects, want 3", n)
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
		futs[i] = new(Future[int64])
	}
	cycle := func() {
		for _, f := range futs {
			requeue(b, wire, fn, f)
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

// TestTracedSyncAllocs pins a warm Sync with a tracer attached to both
// runtimes (flows off) at the one object the armed path needs: the closer
// of the offload span, which Issue hands its future as a settle hook. The
// encode and execute spans are recorded from a start time, with no closure,
// and no span name is built per offload: the encode and offload names are
// built when the function is registered and the execute names when the
// tracer is attached.
const tracedSyncAllocs = 1

func TestTracedSyncAllocs(t *testing.T) {
	tbk := &allocBackend{}
	target := NewRuntime(tbk, "alloc-arch-traced-t")
	tbk.target = target
	host := NewRuntime(&allocBackend{target: target}, "alloc-arch-traced-h")
	tr := trace.NewTracer()
	target.SetTracer(tr.Node(1, "alloc", WallClock))
	host.SetTracer(tr.Node(0, "alloc", WallClock))
	fn := fnAllocInc.Bind(41)
	var v int64
	var err error
	cycle := func() { v, err = Sync(host, 1, fn) }
	for range 100 {
		cycle()
	}
	n := testing.AllocsPerRun(100, cycle)
	if v != 42 || err != nil {
		t.Fatalf("Sync result = %d, %v; want 42, nil", v, err)
	}
	for _, s := range tr.Spans()[len(tr.Spans())-3:] {
		if want := string(s.Phase) + " fn:test.allocinc"; s.Name != want {
			t.Errorf("span %q, want %q", s.Name, want)
		}
	}
	if n != tracedSyncAllocs {
		t.Errorf("a warm traced Sync allocates %.1f objects, want %d", n, tracedSyncAllocs)
	}
}
