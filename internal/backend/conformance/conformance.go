// Package conformance defines the behavioural contract every HAM-Offload
// communication backend must satisfy — the mechanical form of the paper's
// portability claim that applications run unchanged on any backend (§V).
// The same Exercise function runs against the loopback, TCP, VEO-protocol,
// DMA-protocol and cluster backends.
package conformance

import (
	"bytes"
	"errors"
	"fmt"
	"strings"

	"hamoffload/internal/core"
	"hamoffload/internal/faults"
	"hamoffload/internal/ham"
	"hamoffload/internal/simtime"
	"hamoffload/internal/trace"
	"hamoffload/sched"
	"hamoffload/sched/health"
)

// Registered functions of the conformance program. Like any HAM-Offload
// application, they exist identically in every "binary" involved.
var (
	cfEcho = core.NewFunc1[int64]("conformance.echo",
		func(c *core.Ctx, v int64) (int64, error) { return v, nil })

	cfConcat = core.NewFunc2[string]("conformance.concat",
		func(c *core.Ctx, a, b string) (string, error) { return a + b, nil })

	cfSum = core.NewFunc1[float64]("conformance.sum",
		func(c *core.Ctx, buf core.BufferPtr[float64]) (float64, error) {
			v, err := core.ReadLocal(c, buf, 0, buf.Count)
			if err != nil {
				return 0, err
			}
			s := 0.0
			for _, x := range v {
				s += x
			}
			return s, nil
		})

	cfBig = core.NewFunc1[[]float64]("conformance.big",
		func(c *core.Ctx, n int64) ([]float64, error) {
			out := make([]float64, n)
			for i := range out {
				out[i] = float64(i) + 0.5
			}
			return out, nil
		})

	cfFail = core.NewFunc0[core.Unit]("conformance.fail",
		func(c *core.Ctx) (core.Unit, error) {
			return core.Unit{}, fmt.Errorf("conformance: deliberate failure")
		})

	cfWho = core.NewFunc0[int]("conformance.who",
		func(c *core.Ctx) (int, error) { return int(c.Node()), nil })

	// cfBump increments a one-cell counter on the target, in place, and
	// returns the new value — a side effect that makes duplicate execution
	// visible, which is what the batch retry exercise needs.
	cfBump = core.NewFunc1[int64]("conformance.bump",
		func(c *core.Ctx, buf core.BufferPtr[int64]) (int64, error) {
			v, err := core.ReadLocal(c, buf, 0, 1)
			if err != nil {
				return 0, err
			}
			v[0]++
			return v[0], nil
		})

	cfLen = core.NewFunc1[int64]("conformance.len",
		func(c *core.Ctx, s string) (int64, error) { return int64(len(s)), nil })

	// The []byte-argument kernels read their argument in the message it
	// arrived in (core.NewFunc1): cfChecksum and cfEchoBytes as it is,
	// cfParkRead only after its vector work has parked the target, and
	// cfGrow appends to it before reading it back.
	cfChecksum = core.NewFunc1[int64]("conformance.checksum",
		func(c *core.Ctx, b []byte) (int64, error) { return checksum(b), nil })
	cfEchoBytes = core.NewFunc1[[]byte]("conformance.echobytes",
		func(c *core.Ctx, b []byte) ([]byte, error) { return b, nil })
	cfParkRead = core.NewFunc1[int64]("conformance.parkread",
		func(c *core.Ctx, b []byte) (int64, error) {
			c.ChargeVector(1<<20, 1<<20, 1)
			return checksum(b), nil
		})
	cfGrow = core.NewFunc1[int64]("conformance.grow",
		func(c *core.Ctx, b []byte) (int64, error) {
			n := len(b)
			b = append(b, growPad...)
			return checksum(b[:n]), nil
		})

	// cfSurface inspects the target's side of the Backend surface from the
	// inside and returns its clock reading. simulated is what the host's
	// clock says of itself; oneWay means the target cannot initiate.
	cfSurface = core.NewFunc2[int64]("conformance.surface",
		func(c *core.Ctx, simulated, oneWay bool) (int64, error) {
			be, clk := c.Runtime().Backend(), c.Runtime().Clock()
			if clk == nil || clk != be.Clock() {
				return 0, fmt.Errorf("target runtime clock %v, backend clock %v", clk, be.Clock())
			}
			if clk.Simulated() != simulated {
				return 0, fmt.Errorf("target clock Simulated() = %v, the host's is %v", clk.Simulated(), simulated)
			}
			if oneWay {
				_, callErr := be.Call(0, nil)
				_, waitErr := be.Wait(nil)
				_, _, pollErr := be.Poll(nil)
				for _, err := range []error{callErr, waitErr, pollErr, be.Put(0, nil, 0), be.Get(0, 0, nil), be.RecoverNode(0)} {
					if !errors.Is(err, core.ErrTargetOnly) || !errors.Is(err, core.ErrUnsupported) {
						return 0, fmt.Errorf("target-side initiator call = %v (want core.ErrTargetOnly)", err)
					}
				}
			}
			return int64(clk.Now()), nil
		})
)

// growPad is what cfGrow appends: longer than a batch entry's length word,
// so an append into the next entry of a frame reaches its key.
var growPad = bytes.Repeat([]byte{0xFF}, 16)

// checksum weighs every byte by its position, so a shifted, truncated or
// overwritten payload changes it.
func checksum(b []byte) int64 {
	s := int64(len(b))
	for _, c := range b {
		s = s*31 + int64(c)
	}
	return s
}

// payload returns n bytes of a pattern particular to n and salt.
func payload(n, salt int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(n*7 + salt*13 + i + 1)
	}
	return b
}

// Reporter receives failures; *testing.T satisfies it.
type Reporter interface {
	Errorf(format string, args ...any)
}

// LiveAllocator is a node heap a leak check counts (mem.Heap, core.Heap).
type LiveAllocator interface {
	LiveAllocs() int
}

// Quiescence records what a connected application holds at rest and returns
// the check that, once it is idle again, it holds no more: every call the
// host runtime took is back in its pool, every slot-ring handle Call
// issued has been released — bar hedge losers the runtime still holds to
// reap (core.Runtime.Strays) — and every heap has as many live allocations
// as now. handles counts the backend's open slot-ring handles
// (ring.Host.OpenHandles); nil where the backend has none. Take it right
// after connect, in the host's execution context, and run the check there.
func Quiescence(rt *core.Runtime, handles func() int, heaps ...LiveAllocator) func(Reporter) {
	live := make([]int, len(heaps))
	for i, h := range heaps {
		live[i] = h.LiveAllocs()
	}
	return func(t Reporter) {
		if n := rt.OpenCalls(); n != 0 {
			t.Errorf("quiescence: %d calls taken and not back on the free list", n)
		}
		if handles != nil {
			if n, held := handles(), rt.Strays(); n > held {
				t.Errorf("quiescence: %d slot-ring handles unreleased, %d hedge losers held", n, held)
			}
		}
		for i, h := range heaps {
			if n := h.LiveAllocs(); n != live[i] {
				t.Errorf("quiescence: heap %d holds %d live allocations, %d at connect", i, n, live[i])
			}
		}
	}
}

// Exercise runs the full backend contract from the host runtime rt against
// target node. It must be called in the host's execution context (directly
// for wall-clock backends, inside RunMain for simulated ones).
func Exercise(t Reporter, rt *core.Runtime, target core.NodeID) {
	// --- introspection -----------------------------------------------------
	if rt.ThisNode() == target {
		t.Errorf("host and target share a node id")
	}
	if n := rt.NumNodes(); int(target) >= n {
		t.Errorf("target %d outside NumNodes %d", target, n)
	}
	if d := rt.GetNodeDescriptor(target); d.Name == "" || d.Name == "invalid" {
		t.Errorf("target descriptor unusable: %+v", d)
	}
	if _, err := rt.Ping(target); err != nil {
		t.Errorf("Ping: %v", err)
	}
	if err := rt.CheckCompatible(target); err != nil {
		t.Errorf("CheckCompatible: %v", err)
	}

	// --- sync offloads, argument/result fidelity ----------------------------
	if v, err := core.Sync(rt, target, cfEcho.Bind(-12345)); err != nil || v != -12345 {
		t.Errorf("echo = %d, %v", v, err)
	}
	if s, err := core.Sync(rt, target, cfConcat.Bind("hetero", "geneous")); err != nil || s != "heterogeneous" {
		t.Errorf("concat = %q, %v", s, err)
	}
	if w, err := core.Sync(rt, target, cfWho.Bind()); err != nil || w != int(target) {
		t.Errorf("who = %d, %v (want %d)", w, err, target)
	}

	// --- memory lifecycle ----------------------------------------------------
	buf, err := core.Allocate[float64](rt, target, 64)
	if err != nil {
		t.Errorf("Allocate: %v", err)
		return
	}
	vals := make([]float64, 64)
	want := 0.0
	for i := range vals {
		vals[i] = float64(i) * 1.5
		want += vals[i]
	}
	if err := core.Put(rt, vals, buf); err != nil {
		t.Errorf("Put: %v", err)
	}
	if got, err := core.Sync(rt, target, cfSum.Bind(buf)); err != nil || got != want {
		t.Errorf("sum over put data = %v, %v (want %v)", got, err, want)
	}
	back := make([]float64, 64)
	if err := core.Get(rt, buf, back); err != nil {
		t.Errorf("Get: %v", err)
	}
	for i := range vals {
		if back[i] != vals[i] {
			t.Errorf("get mismatch at %d", i)
			break
		}
	}
	if err := core.Free(rt, buf); err != nil {
		t.Errorf("Free: %v", err)
	}
	if err := core.Free(rt, buf); err == nil {
		t.Errorf("double Free accepted")
	}

	// --- asynchrony and ordering --------------------------------------------
	futs := make([]*core.Future[int64], 12)
	for i := range futs {
		futs[i] = core.Async(rt, target, cfEcho.Bind(int64(i*i)))
	}
	for i := len(futs) - 1; i >= 0; i-- { // out-of-order harvest
		if v, err := futs[i].Get(); err != nil || v != int64(i*i) {
			t.Errorf("future %d = %d, %v", i, v, err)
		}
	}
	f := core.Async(rt, target, cfEcho.Bind(7))
	for !f.Test() {
	}
	if v, err := f.Get(); err != nil || v != 7 {
		t.Errorf("Test/Get = %d, %v", v, err)
	}

	// --- large results --------------------------------------------------------
	if out, err := core.Sync(rt, target, cfBig.Bind(int64(200))); err != nil ||
		len(out) != 200 || out[199] != 199.5 {
		t.Errorf("big result: len %d, %v", len(out), err)
	}

	// --- error propagation and liveness after failure -------------------------
	if _, err := core.Sync(rt, target, cfFail.Bind()); err == nil ||
		!strings.Contains(err.Error(), "deliberate failure") {
		t.Errorf("remote error = %v", err)
	}
	if v, err := core.Sync(rt, target, cfEcho.Bind(1)); err != nil || v != 1 {
		t.Errorf("offload after failure = %d, %v", v, err)
	}

	// --- validation ------------------------------------------------------------
	if _, err := core.Sync(rt, rt.ThisNode(), cfEcho.Bind(1)); err == nil {
		t.Errorf("offload to self accepted")
	}
	if _, err := core.Sync(rt, core.NodeID(rt.NumNodes()+5), cfEcho.Bind(1)); err == nil {
		t.Errorf("offload to missing node accepted")
	}
	if _, err := core.Allocate[float64](rt, target, -1); err == nil {
		t.Errorf("negative allocate accepted")
	}
}

// ExerciseAliasing is the runtime counterpart of the borrowck analyzer: it
// drives the zero-copy aliasing contracts the //ham:borrowed annotations on
// Backend.Call and Server.Dispatch declare. Call receives a message it may
// only read for the duration of the call, so the exercise clobbers the wire
// bytes the moment Call returns — a backend that retained the buffer (handed
// it to a goroutine, deferred the transfer) would see the corruption and
// answer wrong. Dispatch returns a response that is only valid until the next
// Dispatch, so the exercise consumes each response before dispatching again
// and verifies that scribbling over a stale response cannot corrupt later
// ones. Last, kernels read their []byte arguments in the target's copy of
// the message: intact after Call returns, after the kernel parks, and next
// to an append inside a batch frame. It must run in the host's execution
// context.
func ExerciseAliasing(t Reporter, rt *core.Runtime, target core.NodeID) {
	be := rt.Backend()
	bin := rt.Binary()

	encodeEcho := func(v int64) []byte {
		msg, err := bin.EncodeRequest("fn:conformance.echo", func(e *ham.Encoder) {
			e.PutI64(v)
		})
		if err != nil {
			t.Errorf("aliasing: encode echo: %v", err)
			return nil
		}
		return msg
	}
	decodeEcho := func(resp []byte) (int64, error) {
		d, err := ham.DecodeResponse(resp)
		if err != nil {
			return 0, err
		}
		v := d.I64()
		return v, d.Err()
	}

	// --- Call must not retain the request buffer --------------------------------
	msg := encodeEcho(4242)
	if msg == nil {
		return
	}
	h, err := be.Call(target, msg)
	if err != nil {
		t.Errorf("aliasing: Call: %v", err)
		return
	}
	for i := range msg { // the borrow ended when Call returned
		msg[i] = 0xFF
	}
	resp, err := be.Wait(h)
	if err != nil {
		t.Errorf("aliasing: Wait: %v", err)
		return
	}
	if v, err := decodeEcho(resp); err != nil || v != 4242 {
		t.Errorf("aliasing: clobbered-request echo = %d, %v (want 4242): backend retained the caller's buffer past Call", v, err)
	}

	// --- pipelined Calls, every request clobbered, harvested out of order ------
	const n = 8
	handles := make([]core.Handle, n)
	for i := range handles {
		m := encodeEcho(int64(9000 + i))
		if m == nil {
			return
		}
		if handles[i], err = be.Call(target, m); err != nil {
			t.Errorf("aliasing: pipelined Call %d: %v", i, err)
			return
		}
		for j := range m {
			m[j] = byte(i) // distinct garbage per request
		}
	}
	for i := n - 1; i >= 0; i-- {
		r, err := be.Wait(handles[i])
		if err != nil {
			t.Errorf("aliasing: pipelined Wait %d: %v", i, err)
			return
		}
		if v, err := decodeEcho(r); err != nil || v != int64(9000+i) {
			t.Errorf("aliasing: pipelined echo %d = %d, %v (want %d)", i, v, err, 9000+i)
		}
	}

	// --- Dispatch responses are scratch: valid until the next Dispatch ----------
	// The host runtime is itself a Server; local dispatches execute the same
	// handler path a serve loop drives. Each response is consumed before the
	// next Dispatch, and scribbling over a stale response must not corrupt a
	// later one — they may share the same scratch buffer.
	m1 := encodeEcho(7)
	m2 := encodeEcho(8)
	if m1 == nil || m2 == nil {
		return
	}
	r1 := rt.Dispatch(m1)
	if v, err := decodeEcho(r1); err != nil || v != 7 {
		t.Errorf("aliasing: dispatch echo = %d, %v (want 7)", v, err)
		return
	}
	for i := range r1 { // r1's validity window ends at the next Dispatch
		r1[i] = 0xEE
	}
	r2 := rt.Dispatch(m2)
	if v, err := decodeEcho(r2); err != nil || v != 8 {
		t.Errorf("aliasing: dispatch after clobbered response = %d, %v (want 8): response scratch not re-armed between dispatches", v, err)
	}

	exerciseKernelBytes(t, rt, target)
}

// exerciseKernelBytes drives the kernel side of the aliasing contract: a
// []byte argument is a view of the message on the target, valid until the
// kernel returns. The host clobbers each request the moment Call returns,
// so only the target's copy of the message can answer right.
func exerciseKernelBytes(t Reporter, rt *core.Runtime, target core.NodeID) {
	be, bin := rt.Backend(), rt.Binary()
	call := func(fn string, pay []byte) core.Handle {
		msg, err := bin.EncodeRequest(fn, func(e *ham.Encoder) { e.PutBytes(pay) })
		if err != nil {
			t.Errorf("aliasing: encode %s: %v", fn, err)
			return nil
		}
		h, err := be.Call(target, msg)
		if err != nil {
			t.Errorf("aliasing: Call %s: %v", fn, err)
			return nil
		}
		for i := range msg {
			msg[i] = 0xAB
		}
		return h
	}
	wait := func(h core.Handle) *ham.Decoder {
		resp, err := be.Wait(h)
		if err != nil {
			t.Errorf("aliasing: Wait: %v", err)
			return nil
		}
		d, err := ham.DecodeResponse(resp)
		if err != nil {
			t.Errorf("aliasing: response: %v", err)
			return nil
		}
		return d
	}

	// --- pipelined checksum and echo, payloads around the functor's inline size --
	sizes := []int{0, 1, 59, 60, 61}
	type pending struct {
		pay       []byte
		sum, echo core.Handle
	}
	calls := make([]pending, len(sizes))
	for i, n := range sizes {
		p := &calls[i]
		p.pay = payload(n, i)
		if p.sum = call("fn:conformance.checksum", p.pay); p.sum == nil {
			return
		}
		if p.echo = call("fn:conformance.echobytes", p.pay); p.echo == nil {
			return
		}
	}
	for _, p := range calls {
		if d := wait(p.sum); d != nil {
			if v := d.I64(); d.Err() != nil || v != checksum(p.pay) {
				t.Errorf("aliasing: checksum of a %d-byte argument = %d, %v (want %d)", len(p.pay), v, d.Err(), checksum(p.pay))
			}
		}
		if d := wait(p.echo); d != nil {
			if v := d.Bytes(); d.Err() != nil || !bytes.Equal(v, p.pay) {
				t.Errorf("aliasing: echo of a %d-byte argument = % x, %v (want % x)", len(p.pay), v, d.Err(), p.pay)
			}
		}
	}

	// --- a kernel parked in vector work still reads its argument intact -------
	parked, after := payload(48, 1), payload(48, 2)
	hp := call("fn:conformance.parkread", parked)
	ha := call("fn:conformance.checksum", after)
	if hp == nil || ha == nil {
		return
	}
	if d := wait(hp); d != nil {
		if v := d.I64(); d.Err() != nil || v != checksum(parked) {
			t.Errorf("aliasing: argument read after parking = %d, %v (want %d)", v, d.Err(), checksum(parked))
		}
	}
	if d := wait(ha); d != nil {
		if v := d.I64(); d.Err() != nil || v != checksum(after) {
			t.Errorf("aliasing: checksum behind a parked kernel = %d, %v (want %d)", v, d.Err(), checksum(after))
		}
	}

	// --- an append to the argument stays out of the next entry of a frame -----
	saved := rt.Batching()
	defer rt.SetBatching(saved)
	rt.SetBatching(core.BatchPolicy{MaxMessages: 8})
	pays := make([][]byte, 8)
	fns := make([]core.Functor[int64], len(pays))
	for i := range pays {
		pays[i] = payload(8+i, 3)
		fns[i] = cfGrow.Bind(pays[i])
	}
	for i, f := range core.AsyncBatch(rt, target, fns) {
		if v, err := f.Get(); err != nil || v != checksum(pays[i]) {
			t.Errorf("aliasing: batch entry %d after its predecessor appended to its argument = %d, %v (want %d)", i, v, err, checksum(pays[i]))
		}
	}
	if v, err := core.Sync(rt, target, cfChecksum.Bind(pays[0])); err != nil || v != checksum(pays[0]) {
		t.Errorf("aliasing: Sync checksum = %d, %v (want %d)", v, err, checksum(pays[0]))
	}
	if v, err := core.Sync(rt, target, cfEchoBytes.Bind(pays[1])); err != nil || !bytes.Equal(v, pays[1]) {
		t.Errorf("aliasing: Sync echo = % x, %v (want % x)", v, err, pays[1])
	}
}

// ExerciseBatch runs the message-batching side of the contract: with a
// BatchPolicy armed, queued offloads coalesce into batch frames yet behave
// exactly like individual offloads — results arrive in submission order, a
// failing handler poisons only its own future, frames split under the count
// cap (ExerciseSurface checks the split at MaxMessageLen), unflushed futures
// self-flush in Get, and plain Async offloads interleave freely. The target
// needs no configuration: batch frames are recognised by magic on any
// runtime. It must run in the host's execution
// context; the runtime's batching policy is restored on return.
func ExerciseBatch(t Reporter, rt *core.Runtime, target core.NodeID) {
	saved := rt.Batching()
	defer rt.SetBatching(saved)
	rt.SetBatching(core.BatchPolicy{MaxMessages: 8})

	// --- ordering across frames ----------------------------------------------
	// 20 offloads under MaxMessages 8 ship as 8+8+4; the futures must still
	// settle to their own submissions, in submission order.
	fns := make([]core.Functor[int64], 20)
	for i := range fns {
		fns[i] = cfEcho.Bind(int64(i * 3))
	}
	for i, f := range core.AsyncBatch(rt, target, fns) {
		if v, err := f.Get(); err != nil || v != int64(i*3) {
			t.Errorf("batch: future %d = %d, %v (want %d)", i, v, err, i*3)
		}
	}

	// --- mixed result types in one frame ---------------------------------------
	b := core.NewBatcher(rt)
	fe := core.BatchAdd(b, target, cfEcho.Bind(404))
	fc := core.BatchAdd(b, target, cfConcat.Bind("bat", "ched"))
	if n := b.Pending(target); n != 2 {
		t.Errorf("batch: Pending = %d (want 2)", n)
	}
	b.FlushAll()
	if v, err := fe.Get(); err != nil || v != 404 {
		t.Errorf("batch: mixed echo = %d, %v", v, err)
	}
	if s, err := fc.Get(); err != nil || s != "batched" {
		t.Errorf("batch: mixed concat = %q, %v", s, err)
	}

	// --- per-message error isolation -------------------------------------------
	f1 := core.BatchAdd(b, target, cfEcho.Bind(21))
	ff := core.BatchAdd(b, target, cfFail.Bind())
	f2 := core.BatchAdd(b, target, cfEcho.Bind(22))
	b.FlushAll()
	if v, err := f1.Get(); err != nil || v != 21 {
		t.Errorf("batch: echo before failing entry = %d, %v", v, err)
	}
	if _, err := ff.Get(); err == nil || !strings.Contains(err.Error(), "deliberate failure") {
		t.Errorf("batch: failing entry = %v (want deliberate failure)", err)
	}
	if v, err := f2.Get(); err != nil || v != 22 {
		t.Errorf("batch: echo after failing entry = %d, %v", v, err)
	}

	// --- Get on an unflushed future forces the flush ----------------------------
	lone := core.BatchAdd(b, target, cfEcho.Bind(77))
	if v, err := lone.Get(); err != nil || v != 77 {
		t.Errorf("batch: self-flushing future = %d, %v", v, err)
	}

	// --- plain offloads interleave with batched ones -----------------------------
	rt.SetBatching(core.BatchPolicy{MaxMessages: 4})
	bi := core.NewBatcher(rt)
	fb := core.BatchAdd(bi, target, cfEcho.Bind(51))
	if v, err := core.Sync(rt, target, cfEcho.Bind(52)); err != nil || v != 52 {
		t.Errorf("batch: plain sync among queued batch = %d, %v", v, err)
	}
	bi.FlushAll()
	if v, err := fb.Get(); err != nil || v != 51 {
		t.Errorf("batch: queued future around plain sync = %d, %v", v, err)
	}

	// --- validation ---------------------------------------------------------------
	if _, err := core.BatchAdd(bi, rt.ThisNode(), cfEcho.Bind(1)).Get(); err == nil {
		t.Errorf("batch: offload to self accepted")
	}
	if _, err := core.BatchAdd(bi, core.NodeID(rt.NumNodes()+5), cfEcho.Bind(1)).Get(); err == nil {
		t.Errorf("batch: offload to missing node accepted")
	}
}

// ExerciseBatchRetry pins the interaction of batching with fault tolerance:
// under an armed injector (fed through the backend or the machine substrate)
// and a retry policy on rt, every message of every batch frame executes
// exactly once — a retransmitted frame's sub-envelopes land in the target's
// dedup window, which answers them from cache instead of re-executing. The
// effectful bump counter makes any violation visible: n batched bumps must
// leave the counter at exactly n and return a permutation of 1..n. It must
// run in the host's execution context with rt's retry policy armed; inj may
// be nil when the caller cannot observe the injector directly.
func ExerciseBatchRetry(t Reporter, rt *core.Runtime, target core.NodeID, inj *faults.Injector) {
	saved := rt.Batching()
	defer rt.SetBatching(saved)
	rt.SetBatching(core.BatchPolicy{MaxMessages: 4})

	buf, err := core.Allocate[int64](rt, target, 1)
	if err != nil {
		t.Errorf("batch-retry: Allocate: %v", err)
		return
	}
	defer func() { _ = core.Free(rt, buf) }()
	if err := core.Put(rt, []int64{0}, buf); err != nil {
		t.Errorf("batch-retry: Put: %v", err)
		return
	}

	const n = 20
	fns := make([]core.Functor[int64], n)
	for i := range fns {
		fns[i] = cfBump.Bind(buf)
	}
	seen := make([]bool, n+1)
	for i, f := range core.AsyncBatch(rt, target, fns) {
		v, err := f.Get()
		if err != nil {
			t.Errorf("batch-retry: bump %d under injection = %v", i, err)
			return
		}
		// Retried frames may execute after later frames, so the values are a
		// permutation of 1..n, not necessarily in submission order.
		if v < 1 || v > n || seen[v] {
			t.Errorf("batch-retry: bump %d returned %d — duplicate or out-of-range execution", i, v)
			return
		}
		seen[v] = true
	}
	final := make([]int64, 1)
	if err := core.Get(rt, buf, final); err != nil {
		t.Errorf("batch-retry: Get: %v", err)
		return
	}
	if final[0] != n {
		t.Errorf("batch-retry: counter = %d after %d batched bumps (want exactly %d)", final[0], n, n)
	}
	if inj != nil && inj.Injected() == 0 {
		t.Errorf("batch-retry: injector armed but nothing fired")
	}
}

// ExerciseBackpressure saturates the target far past the backend's
// in-flight capacity (the slot protocols hold 8 message slots; this issues
// 96 asyncs back to back) and pins what saturation is allowed to look like:
// a Call either queues behind the busy slots or rejects at submission with
// an error — it may not hang, and above all it may not lose track of a
// future. Every future settles exactly once (pre-registered OnSettle
// counters catch both drops and double-settles), every successful echo
// carries its own payload, and the futures are harvested in a deterministic
// scattered order so late settles of early submissions must still resolve.
// It must run in the host's execution context.
func ExerciseBackpressure(t Reporter, rt *core.Runtime, target core.NodeID) {
	const n = 96 // ≫ the 8 slots of the slot protocols
	futs := make([]*core.Future[int64], n)
	settles := make([]int, n)
	for i := range futs {
		f := core.Async(rt, target, cfEcho.Bind(int64(i)))
		i := i
		f.OnSettle(func() { settles[i]++ })
		futs[i] = f
	}

	// Harvest in a fixed scattered order: stride 29 is coprime to 96, so the
	// walk is a permutation that interleaves early and late submissions. A
	// backend that recycled a slot while its old future was still unsettled
	// would corrupt or drop one of these.
	for k := 0; k < n; k++ {
		i := (k * 29) % n
		v, err := futs[i].Get()
		if err != nil {
			// Rejection at saturation is allowed, but only as a clean error on
			// this future — the echo contract below catches a response that was
			// delivered to the wrong future instead.
			continue
		}
		if v != int64(i) {
			t.Errorf("backpressure: future %d settled to %d — response crossed futures", i, v)
		}
	}
	for i, c := range settles {
		if c != 1 {
			t.Errorf("backpressure: future %d settled %d times (want exactly once)", i, c)
		}
	}

	// A second identical wave must behave identically: saturation may queue
	// or reject, but deterministically — the same submission schedule yields
	// the same per-future outcome.
	first := make([]bool, n)
	for i, f := range futs {
		_, err := f.Get() // settled above; records the outcome
		first[i] = err == nil
	}
	futs2 := make([]*core.Future[int64], n)
	for i := range futs2 {
		futs2[i] = core.Async(rt, target, cfEcho.Bind(int64(i)))
	}
	for k := 0; k < n; k++ {
		i := (k * 29) % n
		v, err := futs2[i].Get()
		if (err == nil) != first[i] {
			t.Errorf("backpressure: future %d outcome changed between identical waves (err %v)", i, err)
		}
		if err == nil && v != int64(i) {
			t.Errorf("backpressure: second-wave future %d settled to %d", i, v)
		}
	}

	// The backend must be fully live after both saturation waves.
	if v, err := core.Sync(rt, target, cfEcho.Bind(4096)); err != nil || v != 4096 {
		t.Errorf("backpressure: echo after saturation = %d, %v", v, err)
	}
}

// ExerciseSurface pins the part of core.Backend that is not message traffic:
// both nodes have a clock, the runtime's is the backend's, and host and
// target agree on whether (and roughly when) simulated time exists; a batch
// frame splits at MaxMessageLen; RecoverNode recovers or says
// core.ErrUnsupported. oneWay is true for every backend with distinct host
// and target sides (all but the loopback, whose nodes are symmetric): there
// the target's initiator methods and the host's Serve are the shared stubs.
// It must run in the host's execution context.
func ExerciseSurface(t Reporter, rt *core.Runtime, target core.NodeID, oneWay bool) {
	be, clk := rt.Backend(), rt.Clock()
	if clk == nil || clk != be.Clock() {
		t.Errorf("surface: runtime clock %v, backend clock %v", clk, be.Clock())
		return
	}
	before := clk.Now()
	at, err := core.Sync(rt, target, cfSurface.Bind(clk.Simulated(), oneWay))
	if err != nil {
		t.Errorf("surface: %v", err)
	} else if now := simtime.Time(at); clk.Simulated() && (now <= before || now >= clk.Now()) {
		t.Errorf("surface: target clock read %v during an offload spanning %v..%v", now, before, clk.Now())
	} else if !clk.Simulated() && (now != 0 || clk.Now() != 0) {
		t.Errorf("surface: wall clocks read %v (target) and %v (host), want 0", now, clk.Now())
	}
	if oneWay {
		if err := be.Serve(rt); !errors.Is(err, core.ErrHostOnly) || !errors.Is(err, core.ErrUnsupported) {
			t.Errorf("surface: host Serve = %v (want core.ErrHostOnly)", err)
		}
	}

	// Three messages of a third of the limit each cannot share a frame: the
	// third add ships the first two. (Skipped where the limit is too large
	// to fill: TCP frames carry up to a GiB.)
	limit := be.MaxMessageLen()
	if limit <= 0 {
		t.Errorf("surface: MaxMessageLen = %d", limit)
	} else if limit <= 1<<20 {
		saved := rt.Batching()
		rt.SetBatching(core.BatchPolicy{MaxMessages: 1 << 20})
		b, payload := core.NewBatcher(rt), strings.Repeat("x", limit/3)
		var futs []*core.Future[int64]
		for i, want := range []int{1, 2, 1} {
			futs = append(futs, core.BatchAdd(b, target, cfLen.Bind(payload)))
			if n := b.Pending(target); n != want {
				t.Errorf("surface: %d queued after add %d of %d-byte messages under a %d-byte limit, want %d", n, i+1, len(payload), limit, want)
			}
		}
		b.FlushAll()
		for i, f := range futs {
			if v, err := f.Get(); err != nil || v != int64(len(payload)) {
				t.Errorf("surface: split batch future %d = %d, %v", i, v, err)
			}
		}
		rt.SetBatching(saved)
	}

	if err := rt.RecoverNode(core.NodeID(rt.NumNodes())); err == nil {
		t.Errorf("surface: RecoverNode of a node outside the application succeeded")
	}
	if err := rt.RecoverNode(target); err != nil && !errors.Is(err, core.ErrUnsupported) {
		t.Errorf("surface: RecoverNode = %v (want nil or core.ErrUnsupported)", err)
	}
	if v, err := core.Sync(rt, target, cfEcho.Bind(77)); err != nil || v != 77 {
		t.Errorf("surface: echo after RecoverNode = %d, %v", v, err)
	}
}

// ExerciseErrors pins down the error-propagation side of the contract: a
// handler error surfaces identically through Future.Get and Future.MustGet
// (the latter by panicking with the same error), and the backend stays live
// afterwards. It must run in the host's execution context.
func ExerciseErrors(t Reporter, rt *core.Runtime, target core.NodeID) {
	_, getErr := core.Async(rt, target, cfFail.Bind()).Get()
	if getErr == nil || !strings.Contains(getErr.Error(), "deliberate failure") {
		t.Errorf("errors: Get = %v (want the handler's deliberate failure)", getErr)
		return
	}

	var panicked error
	func() {
		defer func() {
			if r := recover(); r != nil {
				err, ok := r.(error)
				if !ok {
					t.Errorf("errors: MustGet panicked with %T %v (want error)", r, r)
					return
				}
				panicked = err
			}
		}()
		core.Async(rt, target, cfFail.Bind()).MustGet()
	}()
	if panicked == nil {
		t.Errorf("errors: MustGet did not panic on a handler error")
	} else if panicked.Error() != getErr.Error() {
		t.Errorf("errors: MustGet panic %q differs from Get error %q", panicked, getErr)
	}

	if v, err := core.Sync(rt, target, cfEcho.Bind(31)); err != nil || v != 31 {
		t.Errorf("errors: echo after failures = %d, %v", v, err)
	}
}

// FaultHooks adapts one backend's failure controls to ExerciseFaults. Inj
// is the armed injector feeding the backend, if any; Kill fails the target
// node; Recover (optional) re-establishes it, restarting whatever serve
// loop the backend needs.
type FaultHooks struct {
	Inj     *faults.Injector
	Kill    func() error
	Recover func() error
}

// ExerciseFaults is the fault-tolerance contract: offloads survive armed
// transient injection (given a retry policy on rt), a killed node fails
// in-flight and new offloads with core.ErrNodeFailed instead of hanging,
// and — when the backend supports recovery — offloads succeed again after
// RecoverNode. It must run in the host's execution context.
func ExerciseFaults(t Reporter, rt *core.Runtime, target core.NodeID, hooks FaultHooks) {
	if v, err := core.Sync(rt, target, cfEcho.Bind(11)); err != nil || v != 11 {
		t.Errorf("faults: pre-fault echo = %d, %v", v, err)
		return
	}

	// --- transient faults are survived, not surfaced --------------------------
	if hooks.Inj != nil {
		for i := int64(0); i < 16; i++ {
			if v, err := core.Sync(rt, target, cfEcho.Bind(100+i)); err != nil || v != 100+i {
				t.Errorf("faults: echo %d under injection = %d, %v", i, v, err)
			}
		}
		if hooks.Inj.Injected() == 0 {
			t.Errorf("faults: injector armed but nothing fired")
		}
	}

	if hooks.Kill == nil {
		return
	}

	// --- node failure ----------------------------------------------------------
	inflight := core.Async(rt, target, cfEcho.Bind(42))
	if err := hooks.Kill(); err != nil {
		t.Errorf("faults: kill: %v", err)
		return
	}
	// The in-flight offload raced the kill: a response that made it out is
	// fine, anything else must resolve to ErrNodeFailed — never a hang.
	if v, err := inflight.Get(); err == nil {
		if v != 42 {
			t.Errorf("faults: in-flight offload across node death = %d (want 42)", v)
		}
	} else if !errors.Is(err, core.ErrNodeFailed) {
		t.Errorf("faults: in-flight offload across node death = %v (want ErrNodeFailed)", err)
	}
	if _, err := core.Sync(rt, target, cfEcho.Bind(43)); !errors.Is(err, core.ErrNodeFailed) {
		t.Errorf("faults: offload to dead node = %v (want ErrNodeFailed)", err)
	}

	if hooks.Recover == nil {
		return
	}

	// --- recovery --------------------------------------------------------------
	if err := hooks.Recover(); err != nil {
		t.Errorf("faults: recover: %v", err)
		return
	}
	if v, err := core.Sync(rt, target, cfEcho.Bind(44)); err != nil || v != 44 {
		t.Errorf("faults: echo after recovery = %d, %v", v, err)
	}
}

// ExerciseTrace extends the contract to observability: with tracing attached,
// one synchronous offload must emit the mandatory lifecycle spans — offload,
// encode, call and wait on the initiating node, and execute on the serving
// node — and the initiator-side sub-spans must nest inside the offload span.
// It must run in the host's execution context, after the backend and both
// runtimes have been wired to tr.
func ExerciseTrace(t Reporter, rt *core.Runtime, target core.NodeID, tr *trace.Tracer) {
	before := tr.Len()
	if v, err := core.Sync(rt, target, cfEcho.Bind(99)); err != nil || v != 99 {
		t.Errorf("traced echo = %d, %v", v, err)
		return
	}
	spans := tr.Spans()[before:]

	pick := func(ph trace.Phase, node int) (trace.Span, bool) {
		for _, s := range spans {
			if s.Phase == ph && s.Node == node {
				return s, true
			}
		}
		return trace.Span{}, false
	}
	self := int(rt.ThisNode())
	offl, okOffl := pick(trace.PhaseOffload, self)
	for _, ph := range []trace.Phase{trace.PhaseOffload, trace.PhaseEncode,
		trace.PhaseCall, trace.PhaseWait} {
		s, ok := pick(ph, self)
		if !ok {
			t.Errorf("mandatory %q span missing on initiating node %d", ph, self)
			continue
		}
		if s.Backend == "" {
			t.Errorf("%q span lacks a backend label", ph)
		}
		// The sub-spans share the initiator's clock, so nesting inside the
		// offload span is well defined even for wall-clock backends.
		if okOffl && ph != trace.PhaseOffload && (s.Start < offl.Start || s.End > offl.End) {
			t.Errorf("%q span [%d..%d] escapes the offload span [%d..%d]",
				ph, s.Start, s.End, offl.Start, offl.End)
		}
	}
	if _, ok := pick(trace.PhaseExecute, int(target)); !ok {
		t.Errorf("mandatory %q span missing on serving node %d", trace.PhaseExecute, target)
	}
}

// ExerciseHedging extends the contract to hedged requests: with fault
// tolerance and a same-node hedge armed, every synchronous offload races a
// speculative duplicate of itself, and the target's dedup window must keep
// the effectful handler at exactly-once no matter which copy settles first.
// More offloads than the protocol has message slots run back to back, so
// abandoned hedge-loser handles must recycle their slots instead of wedging
// the connection. It must run in the host's execution context.
func ExerciseHedging(t Reporter, rt *core.Runtime, target core.NodeID) {
	savedFT := rt.FaultTolerancePolicy()
	savedHedge := rt.HedgingPolicy()
	savedBudget := rt.RetryBudgetPolicy()
	defer func() {
		rt.SetFaultTolerance(savedFT)
		rt.SetHedging(savedHedge)
		rt.SetRetryBudget(savedBudget)
	}()
	rt.SetFaultTolerance(core.FaultTolerance{MaxRetries: 3})
	// A delay of one simulated nanosecond fires the hedge on the first paced
	// poll of every offload on the simulated backends; wall-clock backends
	// hedge immediately by contract. Either way every offload duplicates,
	// which is the worst case the dedup window must absorb. The ample budget
	// exercises the token-spend path without ever denying.
	rt.SetHedging(core.HedgePolicy{Delay: simtime.Nanosecond})
	rt.SetRetryBudget(core.RetryBudget{Tokens: 256})

	buf, err := core.Allocate[int64](rt, target, 1)
	if err != nil {
		t.Errorf("hedging: Allocate: %v", err)
		return
	}
	defer func() { _ = core.Free(rt, buf) }()
	if err := core.Put(rt, []int64{0}, buf); err != nil {
		t.Errorf("hedging: Put: %v", err)
		return
	}

	hedgesBefore := rt.Hedges()
	const n = 20 // more than the default 8 message slots: losers must recycle
	for i := int64(1); i <= n; i++ {
		v, err := core.Sync(rt, target, cfBump.Bind(buf))
		if err != nil {
			t.Errorf("hedging: bump %d = %v", i, err)
			return
		}
		// Synchronous, hedged, deduped: the counter must advance by exactly
		// one per offload — a duplicate execution would skip ahead.
		if v != i {
			t.Errorf("hedging: bump %d returned %d — hedge duplicate executed", i, v)
			return
		}
	}
	final := make([]int64, 1)
	if err := core.Get(rt, buf, final); err != nil {
		t.Errorf("hedging: Get: %v", err)
		return
	}
	if final[0] != n {
		t.Errorf("hedging: counter = %d after %d hedged bumps (want exactly %d)", final[0], n, n)
	}
	if got := rt.Hedges() - hedgesBefore; got < 1 {
		t.Errorf("hedging: no hedge fired across %d offloads", n)
	}
	if rt.BudgetDenied() != 0 {
		t.Errorf("hedging: ample budget denied %d times", rt.BudgetDenied())
	}

	// The connection must be fully live afterwards.
	if v, err := core.Sync(rt, target, cfEcho.Bind(61)); err != nil || v != 61 {
		t.Errorf("hedging: echo after hedged run = %d, %v", v, err)
	}
}

// ExerciseGrayFailure is the health-scored scheduling contract: a fail-slow
// node must be ejected by its circuit breaker, traffic must route around it
// while it is open, and after the cooldown a probe offload must re-admit
// it. Offloads are real; the latency observations fed to the tracker are
// synthetic (a healthy 5 µs versus a sick 60 µs), so the exercise is
// deterministic on wall-clock and simulated backends alike. targets are
// rt's offload targets, sick the one to degrade; with a single target the
// policy must fail open and keep serving it. It must run in the host's
// execution context.
func ExerciseGrayFailure(t Reporter, rt *core.Runtime, targets []core.NodeID, sick core.NodeID) {
	const (
		healthyLat = 5 * simtime.Microsecond
		sickLat    = 60 * simtime.Microsecond
	)
	cfg := health.Config{
		OutlierFactor:  3,
		OutlierStrikes: 4,
		FailureStrikes: 3,
		OpenFor:        100 * simtime.Microsecond,
	}
	var now simtime.Time
	trk := health.New(cfg, targets, func() simtime.Time { return now })
	pol := sched.HealthAware(sched.RoundRobin(), trk)
	inflight := make([]int, len(targets))

	// offloadVia picks through the health-aware policy, runs a real echo on
	// the picked node, and feeds the tracker a synthetic latency shaped by
	// the node's (pretend) condition.
	offloadVia := func(slow bool) core.NodeID {
		i := pol.Pick(0, targets, inflight)
		if i < 0 || i >= len(targets) {
			t.Errorf("gray: policy picked %d of %d nodes", i, len(targets))
			return -1
		}
		n := targets[i]
		if v, err := core.Sync(rt, n, cfEcho.Bind(int64(n))); err != nil || v != int64(n) {
			t.Errorf("gray: echo via node %d = %d, %v", n, v, err)
		}
		lat := healthyLat
		if slow {
			lat = sickLat
		}
		trk.Observe(n, lat, false)
		now = now.Add(lat)
		return n
	}

	// --- phase 1: warm-up — every node healthy, all breakers closed ------------
	for range targets {
		offloadVia(false)
	}
	for _, n := range targets {
		if trk.StateOf(n) != health.Closed || !trk.Allows(n) {
			t.Errorf("gray: node %d not closed/allowed after healthy warm-up", n)
		}
	}

	// --- phase 2: degrade the sick node until its breaker opens ----------------
	// Feed the sick node consecutive outlier observations directly (as its
	// settlements would under real degradation) until the breaker trips.
	if len(targets) > 1 {
		for i := 0; i < cfg.OutlierStrikes; i++ {
			if v, err := core.Sync(rt, sick, cfEcho.Bind(int64(sick))); err != nil || v != int64(sick) {
				t.Errorf("gray: echo on sick node %d = %d, %v", sick, v, err)
			}
			trk.Observe(sick, sickLat, false)
			now = now.Add(sickLat)
		}
	} else {
		// A lone target has no healthy reference for outlier detection; trip
		// the breaker through consecutive failures instead.
		for i := 0; i < cfg.FailureStrikes; i++ {
			trk.Observe(sick, 0, true)
		}
	}
	if trk.StateOf(sick) != health.Open {
		t.Errorf("gray: sick node %d not ejected (state %v)", sick, trk.StateOf(sick))
		return
	}
	if trk.Allows(sick) {
		t.Errorf("gray: open breaker admits traffic inside its cooldown")
	}

	// --- phase 3: traffic routes around the ejected node -----------------------
	if len(targets) > 1 {
		for i := 0; i < 2*len(targets); i++ {
			if n := offloadVia(false); n == sick {
				t.Errorf("gray: offload %d landed on ejected node %d", i, sick)
			}
		}
	} else {
		// Fail open: degraded service beats no service.
		// (The breaker stays open; observations while open are stats-only.)
		prev := trk.StateOf(sick)
		if n := offloadVia(true); n != sick {
			t.Errorf("gray: single-target policy must fail open to node %d, picked %d", sick, n)
		}
		if trk.StateOf(sick) != prev {
			t.Errorf("gray: fail-open traffic moved the breaker")
		}
		return // no healthy sibling: probing/re-admission has nothing to route around
	}

	// --- phase 4: cooldown elapses, a probe re-admits the node -----------------
	now = now.Add(cfg.OpenFor)
	if !trk.Allows(sick) {
		t.Errorf("gray: elapsed cooldown must make the sick node probeable")
	}
	probed := false
	for i := 0; i < 2*len(targets) && !probed; i++ {
		if offloadVia(false) == sick {
			probed = true
		}
	}
	if !probed {
		t.Errorf("gray: no probe reached node %d after its cooldown", sick)
		return
	}
	if trk.StateOf(sick) != health.Closed {
		t.Errorf("gray: successful probe left node %d %v (want closed)", sick, trk.StateOf(sick))
	}

	// --- phase 5: the re-admitted node serves again ----------------------------
	served := false
	for i := 0; i < 2*len(targets); i++ {
		if offloadVia(false) == sick {
			served = true
		}
	}
	if !served {
		t.Errorf("gray: re-admitted node %d got no traffic", sick)
	}
	if trk.Transitions() < 3 {
		t.Errorf("gray: %d breaker transitions, want the full closed->open->half-open->closed cycle", trk.Transitions())
	}
}
