package ring

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"hamoffload/internal/backend/slots"
	"hamoffload/internal/core"
	"hamoffload/internal/ham"
	"hamoffload/internal/simtime"
	"hamoffload/internal/veos"
)

// The protocol is tested here without a simulated machine: fake is both
// halves of one ring over plain slices, on a bare DES engine.

// glitch is a transient transfer error, as fault injection would produce.
type glitch struct{}

func (glitch) Error() string   { return "fake: injected glitch" }
func (glitch) Transient() bool { return true }

var errBroken = errors.New("fake: broken for good")

// fake is an in-memory transport. Every operation is logged as "<op> <slot>"
// and numbered per op name; fail makes the n-th one ("write#1") fail, always
// makes every one ("push") fail. The exception is a poll that is free —
// PollResult without pollCost, LoadFlag without loadCost — which honours the
// transports' purity contract: a bare load, unlogged and unnumbered, that
// fails only by a standing fault (always). A LoadFlag that costs is quiet
// only when quiet says so: the engine then issues it (PeekFlag), and it is
// numbered but neither logged nor failed by number.
type fake struct {
	recvFlag, sendFlag   []uint64
	recvBuf              [][]byte
	sendInline, sendOver [][]byte
	mem                  map[uint64][]byte

	p        *simtime.Proc    // host process, for pollCost
	pollCost simtime.Duration // time one PollResult takes
	vp       *simtime.Proc    // target process, for loadCost
	loadCost simtime.Duration // time one LoadFlag takes (the target's IdlePollCost)
	quiet    bool             // a LoadFlag that costs is the engine's to issue
	count    map[string]int
	fail     map[string]error
	always   map[string]error
	log      []string
	dead     bool
	closed   int
	dropped  int // Abandon calls
}

func newFake(o Options, p *simtime.Proc) *fake {
	n := o.NumBuffers
	return &fake{
		p:        p,
		recvFlag: make([]uint64, n), sendFlag: make([]uint64, n),
		recvBuf: make([][]byte, n), sendInline: make([][]byte, n), sendOver: make([][]byte, n),
		mem:   map[uint64][]byte{},
		count: map[string]int{}, fail: map[string]error{}, always: map[string]error{},
	}
}

func (f *fake) step(op string, slot int) error {
	f.count[op]++
	f.log = append(f.log, fmt.Sprintf("%s %d", op, slot))
	if err := f.fail[fmt.Sprintf("%s#%d", op, f.count[op])]; err != nil {
		return err
	}
	return f.always[op]
}

func (f *fake) WriteMessage(slot int, msg []byte) error {
	if err := f.step("write", slot); err != nil {
		return err
	}
	f.recvBuf[slot] = bytes.Clone(msg)
	return nil
}

func (f *fake) PublishFlag(slot int, word uint64) error {
	if err := f.step("flag", slot); err != nil {
		return err
	}
	f.recvFlag[slot] = word
	return nil
}

func (f *fake) PollResult(slot int) (uint64, error) {
	if f.pollCost == 0 {
		return f.sendFlag[slot], f.always["poll"]
	}
	f.p.Sleep(f.pollCost)
	if err := f.step("poll", slot); err != nil {
		return 0, err
	}
	return f.sendFlag[slot], nil
}

func (f *fake) ReadResult(slot int, inline, overflow []byte) error {
	if err := f.step("read", slot); err != nil {
		return err
	}
	copy(inline, f.sendInline[slot])
	copy(overflow, f.sendOver[slot])
	return nil
}

func (f *fake) Put(data []byte, dstAddr uint64) error {
	if err := f.step("put", -1); err != nil {
		return err
	}
	f.mem[dstAddr] = bytes.Clone(data)
	return nil
}

func (f *fake) Get(srcAddr uint64, dst []byte) error {
	if err := f.step("get", -1); err != nil {
		return err
	}
	copy(dst, f.mem[srcAddr])
	return nil
}

func (f *fake) Alive() bool  { return !f.dead }
func (f *fake) Close() error { f.closed++; return f.always["close"] }
func (f *fake) Abandon()     { f.dropped++ }

func (f *fake) LoadFlag(slot int) (uint64, error) {
	if f.loadCost == 0 {
		return f.recvFlag[slot], f.always["load"]
	}
	f.vp.Sleep(f.loadCost)
	if err := f.step("load", slot); err != nil {
		return 0, err
	}
	return f.recvFlag[slot], nil
}

func (f *fake) QuietFlag(int) (simtime.Duration, bool) {
	return f.loadCost, f.loadCost == 0 || f.quiet
}

func (f *fake) PeekFlag(slot int) (uint64, error) { return f.recvFlag[slot], f.always["load"] }

func (f *fake) CountFlags(n int64) {
	if f.loadCost > 0 {
		f.count["load"] += int(n)
	}
}

func (f *fake) Fetch(slot int, msg []byte) error {
	if err := f.step("fetch", slot); err != nil {
		return err
	}
	copy(msg, f.recvBuf[slot])
	return nil
}

func (f *fake) PushResult(slot int, inline, overflow []byte) error {
	if err := f.step("push", slot); err != nil {
		return err
	}
	f.sendInline[slot], f.sendOver[slot] = bytes.Clone(inline), bytes.Clone(overflow)
	return nil
}

func (f *fake) PublishResultFlag(slot int, word uint64) error {
	if err := f.step("rflag", slot); err != nil {
		return err
	}
	f.sendFlag[slot] = word
	return nil
}

// server is a core.Server whose handler the test supplies; nil echoes.
type server struct {
	handle     func(p *simtime.Proc, msg []byte) []byte
	p          *simtime.Proc
	done       bool
	dispatched int
}

func (s *server) Done() bool { return s.done }
func (s *server) Dispatch(msg []byte) []byte {
	s.dispatched++
	if s.handle == nil {
		return msg
	}
	return s.handle(s.p, msg)
}

// world is one host, its fake links in dial order, and — when serving — one
// target process per link.
type world struct {
	t        *testing.T
	eng      *simtime.Engine
	links    []*fake
	srv      *server // nil: nobody answers
	arm      func(f *fake)
	serveErr []error
	serveEnd simtime.Time // when the last Serve returned
	// maxEvents, if set, bounds the run; runErr then receives Run's error
	// instead of the test failing on it.
	maxEvents uint64
	runErr    error
}

const (
	testPoll = 150 * simtime.Nanosecond
	testGap  = 200 * simtime.Nanosecond
)

// run connects a one-target host over fakes and runs body on the host
// process. arm, if set, prepares each freshly dialled fake.
func (w *world) run(o Options, facts HostFacts, body func(p *simtime.Proc, h *Host)) {
	w.t.Helper()
	w.eng = simtime.NewEngine()
	w.eng.MaxEvents = w.maxEvents
	w.eng.Spawn("vh", func(p *simtime.Proc) {
		defer w.eng.Stop()
		h, err := Connect(p, HostConfig{Name: "fake", Options: o}, 1, func(o Options, i, self, total int) (HostTransport, HostFacts, error) {
			f := newFake(o, p)
			f.pollCost = testGap - facts.PollGap // a poll costs either way
			if w.arm != nil {
				w.arm(f)
			}
			w.links = append(w.links, f)
			if w.srv != nil {
				w.serve(f, TargetConfig{Name: "fake", Options: o, Self: self, Nodes: total, Transport: f, IdlePollCost: f.loadCost})
			}
			facts.Node = fmt.Sprintf("fake%d", i)
			return f, facts, nil
		})
		if err != nil {
			w.t.Errorf("Connect: %v", err)
			return
		}
		body(p, h)
		if w.srv != nil {
			w.srv.done = true
		}
	})
	if w.runErr = w.eng.Run(); w.runErr != nil && w.maxEvents == 0 {
		w.t.Fatalf("Run: %v", w.runErr)
	}
	w.eng.Shutdown()
}

func (w *world) serve(f *fake, cfg TargetConfig) {
	w.eng.Spawn("ve", func(tp *simtime.Proc) {
		w.srv.p, f.vp = tp, tp
		tgt := newTarget(cfg, tp, testPoll, f.Alive)
		if err := tgt.Serve(w.srv); err != nil {
			w.serveErr = append(w.serveErr, err)
		}
		w.serveEnd = tp.Now()
	})
}

func localPoll() HostFacts  { return HostFacts{Overhead: testGap, PollGap: testGap} }
func remotePoll() HostFacts { return HostFacts{Overhead: testGap, AbsorbPollFaults: true} }

func mustCall(t *testing.T, h *Host, msg string) *handle {
	t.Helper()
	hh, err := h.Call(1, []byte(msg))
	if err != nil {
		t.Fatalf("Call(%q): %v", msg, err)
	}
	return hh.(*handle)
}

func mustWait(t *testing.T, h *Host, hd *handle, want string) {
	t.Helper()
	resp, err := h.Wait(hd)
	if err != nil || string(resp) != want {
		t.Fatalf("Wait(slot %d seq %d) = %q, %v; want %q", hd.slot, hd.seq, resp, err, want)
	}
}

// (a) An attempt aborted before the flag publish must re-land in the same
// slot with the same sequence number: the VE still waits for exactly that.
func TestAbortedCallKeepsSlotAndSequence(t *testing.T) {
	for _, failing := range []string{"write#1", "flag#1"} {
		t.Run(failing, func(t *testing.T) {
			w := &world{t: t, arm: func(f *fake) { f.fail[failing] = glitch{} }}
			w.run(Options{}, localPoll(), func(p *simtime.Proc, h *Host) {
				if _, err := h.Call(1, []byte("lost")); !core.IsTransient(err) {
					t.Fatalf("aborted Call = %v, want the transient error", err)
				}
				c, f := h.conns[0], w.links[0]
				if c.next != 0 || c.seq[0] != 0 || c.inUse[0] != nil {
					t.Fatalf("aborted Call committed: next=%d seq=%d inUse=%v", c.next, c.seq[0], c.inUse[0])
				}
				if f.recvFlag[0] != 0 {
					t.Fatalf("aborted Call published flag %#x", f.recvFlag[0])
				}
				hd := mustCall(t, h, "again")
				if hd.slot != 0 || hd.seq != 0 || f.recvFlag[0] != slots.Encode(0, len("again")) {
					t.Fatalf("retry landed in slot %d seq %d flag %#x", hd.slot, hd.seq, f.recvFlag[0])
				}
				if c.next != 1 || c.seq[0] != 1 || c.inUse[0] != hd {
					t.Fatalf("successful Call did not commit: next=%d seq=%d", c.next, c.seq[0])
				}
				if i, j := slices.Index(f.log, "write 0"), slices.Index(f.log, "flag 0"); failing == "flag#1" && i > j {
					t.Fatalf("flag published before the payload: %v", f.log)
				}
			})
		})
	}
}

// (b) Wrapping the ring drains the slot's previous occupant before reuse.
func TestWrapDrainsPreviousOccupant(t *testing.T) {
	w := &world{t: t, srv: &server{}}
	w.run(Options{NumBuffers: 2}, localPoll(), func(p *simtime.Proc, h *Host) {
		h0 := mustCall(t, h, "m0")
		h1 := mustCall(t, h, "m1")
		if h0.done || h1.done {
			t.Fatal("handles done before anybody waited")
		}
		h2 := mustCall(t, h, "m2") // slot 0 again
		if h2.slot != 0 || h2.seq != 1 {
			t.Fatalf("third Call landed in slot %d seq %d", h2.slot, h2.seq)
		}
		if !h0.done || string(h0.resp) != "m0" {
			t.Fatalf("slot 0 reused with its occupant undrained (done=%v resp=%q)", h0.done, h0.resp)
		}
		log := w.links[0].log
		drained := slices.Index(log, "read 0")
		rewritten := slices.Index(log[drained+1:], "write 0")
		if drained < 0 || rewritten < 0 {
			t.Fatalf("slot 0 rewritten before its result was read: %v", log)
		}
		mustWait(t, h, h2, "m2")
		mustWait(t, h, h1, "m1")
		mustWait(t, h, h0, "m0") // settled handles stay readable
	})
	if w.srv.dispatched != 3 {
		t.Errorf("dispatched %d messages, want 3", w.srv.dispatched)
	}
}

// (c) An offload that times out keeps its slot leased; later offloads still
// complete, and the wrap drains the late result instead of clobbering it.
func TestTimeoutLeavesSlotLeased(t *testing.T) {
	slowFirst := func(p *simtime.Proc, msg []byte) []byte {
		if string(msg) == "slow" {
			p.Sleep(80 * simtime.Microsecond)
		}
		return msg
	}
	w := &world{t: t, srv: &server{handle: slowFirst}}
	o := Options{NumBuffers: 2, OffloadTimeout: 50 * simtime.Microsecond}
	w.run(o, localPoll(), func(p *simtime.Proc, h *Host) {
		lost := mustCall(t, h, "slow")
		if _, err := h.Wait(lost); !errors.Is(err, core.ErrOffloadTimeout) {
			t.Fatalf("Wait = %v, want ErrOffloadTimeout", err)
		}
		c := h.conns[0]
		if c.inUse[0] != lost || c.next != 1 {
			t.Fatalf("timed-out slot not leased: inUse=%v next=%d", c.inUse[0], c.next)
		}
		mustWait(t, h, mustCall(t, h, "m1"), "m1")
		mustWait(t, h, mustCall(t, h, "m2"), "m2") // wraps onto the lost offload's slot
		if !lost.done || string(lost.resp) != "slow" {
			t.Fatalf("late result not drained: done=%v resp=%q", lost.done, lost.resp)
		}
	})
}

// (d) A handle issued before RecoverNode keeps failing with ErrNodeFailed
// and never reads the replacement conn's slots.
func TestStaleHandleAfterRecover(t *testing.T) {
	w := &world{t: t}
	w.run(Options{}, remotePoll(), func(p *simtime.Proc, h *Host) { // polls that cost are counted
		stale := mustCall(t, h, "doomed")
		if err := h.RecoverNode(1); err != nil {
			t.Fatalf("RecoverNode: %v", err)
		}
		if err := h.RecoverNode(7); err == nil {
			t.Error("RecoverNode of a missing node accepted")
		}
		old, fresh := w.links[0], w.links[1]
		if old.dropped != 1 || old.closed != 0 {
			t.Errorf("old link abandoned %d times, closed %d", old.dropped, old.closed)
		}
		polls := old.count["poll"]
		for i := 0; i < 3; i++ {
			if _, err := h.Wait(stale); !errors.Is(err, core.ErrNodeFailed) {
				t.Fatalf("stale Wait = %v, want ErrNodeFailed", err)
			}
			if _, _, err := h.Poll(stale); !errors.Is(err, core.ErrNodeFailed) {
				t.Fatalf("stale Poll = %v, want ErrNodeFailed", err)
			}
		}
		if old.count["poll"] != polls || fresh.count["poll"] != 0 {
			t.Fatalf("stale handle polled: old %d→%d, fresh %d", polls, old.count["poll"], fresh.count["poll"])
		}
		hd := mustCall(t, h, "reborn")
		if hd.c != h.conns[0] || hd.slot != 0 || hd.seq != 0 || fresh.count["flag"] != 1 {
			t.Fatalf("post-recovery Call: slot %d seq %d on %p", hd.slot, hd.seq, hd.c)
		}
		if err := h.Close(); err != nil || fresh.closed != 1 || old.closed != 0 {
			t.Errorf("Close = %v; fresh closed %d, old closed %d", err, fresh.closed, old.closed)
		}
	})
}

// serveOnce runs a bare target over f with one message already published in
// slot 0 and returns Serve's error.
func serveOnce(t *testing.T, o Options, srv *server, arm func(f *fake)) (*fake, error) {
	t.Helper()
	o.fill()
	f := newFake(o, nil)
	_ = f.WriteMessage(0, []byte("ping"))
	_ = f.PublishFlag(0, slots.Encode(0, 4))
	if arm != nil {
		arm(f)
	}
	var serveErr error
	eng := simtime.NewEngine()
	eng.Spawn("ve", func(tp *simtime.Proc) {
		srv.p, f.vp = tp, tp
		tgt := newTarget(TargetConfig{Name: "fake", Options: o, Self: 1, Nodes: 2, Transport: f, IdlePollCost: f.loadCost}, tp, testPoll, f.Alive)
		serveErr = tgt.Serve(srv)
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return f, serveErr
}

// stopAfter makes the server report Done once n messages were dispatched.
func stopAfter(n int) *server {
	s := &server{}
	s.handle = func(_ *simtime.Proc, msg []byte) []byte {
		s.done = s.dispatched >= n
		return msg
	}
	return s
}

// (e) The respond retry stops after 64 transient failures, and the handler
// ran exactly once however often the push was retried.
func TestRespondRetryBounded(t *testing.T) {
	for _, op := range []string{"push", "rflag"} {
		srv := &server{}
		f, err := serveOnce(t, Options{}, srv, func(f *fake) { f.always[op] = glitch{} })
		if !core.IsTransient(err) {
			t.Fatalf("%s: Serve = %v, want the transient error", op, err)
		}
		if f.count[op] != 1+respondRetries || srv.dispatched != 1 {
			t.Errorf("%s attempted %d times for %d dispatches, want %d for 1", op, f.count[op], srv.dispatched, 1+respondRetries)
		}
		if f.sendFlag[0] != 0 {
			t.Errorf("%s: result flag %#x published despite the failure", op, f.sendFlag[0])
		}
	}
	// A burst shorter than the window is ridden out.
	f, err := serveOnce(t, Options{}, stopAfter(1), func(f *fake) {
		f.fail["push#1"], f.fail["push#2"], f.fail["rflag#1"] = glitch{}, glitch{}, glitch{}
	})
	if err != nil || f.sendFlag[0] != slots.Encode(0, 4) || f.count["push"] != 4 {
		t.Errorf("short burst: Serve = %v, flag %#x after %d pushes", err, f.sendFlag[0], f.count["push"])
	}
}

// (f) A result larger than ResultInline+BufSize becomes a ham failure
// response; the largest result that fits passes through both buffers intact.
func TestOversizeResultBecomesFailure(t *testing.T) {
	o := Options{BufSize: 64, ResultInline: 16}
	var size int
	w := &world{t: t, srv: &server{handle: func(*simtime.Proc, []byte) []byte {
		return bytes.Repeat([]byte{0xAB}, size)
	}}}
	w.run(o, localPoll(), func(p *simtime.Proc, h *Host) {
		size = 16 + 64
		resp, err := h.Wait(mustCall(t, h, "fits"))
		if err != nil || !bytes.Equal(resp, bytes.Repeat([]byte{0xAB}, size)) {
			t.Fatalf("largest result: %d bytes, %v", len(resp), err)
		}
		if f := w.links[0]; len(f.sendInline[0]) != 16 || len(f.sendOver[0]) != 64 {
			t.Fatalf("split %d inline + %d overflow", len(f.sendInline[0]), len(f.sendOver[0]))
		}
		size++
		resp, err = h.Wait(mustCall(t, h, "too big"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ham.DecodeResponse(resp); err == nil || !strings.Contains(err.Error(), "fake: result of 81 bytes exceeds the send buffer") {
			t.Fatalf("oversize result decoded as %v", err)
		}
		size = 3
		mustWaitLen(t, h, mustCall(t, h, "after"), 3) // the channel survives
	})
}

func mustWaitLen(t *testing.T, h *Host, hd *handle, n int) {
	t.Helper()
	if resp, err := h.Wait(hd); err != nil || len(resp) != n {
		t.Fatalf("Wait = %d bytes, %v; want %d", len(resp), err, n)
	}
}

// A transient poll error is a miss where the transport says so, and an
// error where it does not.
func TestPollFaults(t *testing.T) {
	for _, tc := range []struct {
		name   string
		facts  HostFacts
		absorb bool
	}{{"absorbed", remotePoll(), true}, {"surfaced", localPoll(), false}} {
		t.Run(tc.name, func(t *testing.T) {
			// A costed poll fails by number, a free one by a standing fault.
			arm := func(f *fake) { f.fail["poll#1"] = glitch{} }
			if !tc.absorb {
				arm = func(f *fake) { f.always["poll"] = glitch{} }
			}
			w := &world{t: t, srv: &server{}, arm: arm}
			w.run(Options{}, tc.facts, func(p *simtime.Proc, h *Host) {
				hd := mustCall(t, h, "m")
				_, err := h.Wait(hd)
				if !tc.absorb {
					if !core.IsTransient(err) {
						t.Fatalf("Wait = %v, want the poll error", err)
					}
					delete(w.links[0].always, "poll")
					mustWait(t, h, hd, "m") // the offload itself is unharmed
					return
				}
				if err != nil {
					t.Fatalf("Wait = %v, want the glitch absorbed", err)
				}
				f := w.links[0]
				f.fail[fmt.Sprintf("poll#%d", f.count["poll"]+1)] = glitch{}
				hd = mustCall(t, h, "n")
				if _, done, err := h.Poll(hd); done || err != nil {
					t.Fatalf("Poll over a glitch = %v, %v", done, err)
				}
				mustWait(t, h, hd, "n")
			})
		})
	}
}

// The host surface beyond Call/Wait: Poll, Put, Get, dead-node
// classification, the fixed answers.
func TestHostSurface(t *testing.T) {
	w := &world{t: t, srv: &server{}}
	w.run(Options{BufSize: 32}, localPoll(), func(p *simtime.Proc, h *Host) {
		if h.Self() != 0 || h.NumNodes() != 2 || h.MaxMessageLen() != 32 || h.Memory() != nil {
			t.Errorf("Self/NumNodes/MaxMessageLen = %d/%d/%d", h.Self(), h.NumNodes(), h.MaxMessageLen())
		}
		if d := h.Descriptor(0); d.Name != "vh" {
			t.Errorf("Descriptor(0) = %+v", d)
		}
		if d := h.Descriptor(1); d.Name != "fake0" || d.Arch != "aurora-ve" {
			t.Errorf("Descriptor(1) = %+v", d)
		}
		if d := h.Descriptor(2); d.Name != "invalid" {
			t.Errorf("Descriptor(2) = %+v", d)
		}
		if err := h.Serve(nil); !errors.Is(err, core.ErrHostOnly) {
			t.Errorf("host Serve = %v", err)
		}
		if _, err := h.Call(2, nil); err == nil {
			t.Error("Call to a missing node accepted")
		}
		if _, err := h.Call(1, make([]byte, 33)); err == nil || !strings.Contains(err.Error(), "exceeds buffer size") {
			t.Errorf("oversized message: %v", err)
		}
		if _, err := h.Wait("bogus"); err == nil {
			t.Error("foreign handle accepted by Wait")
		}
		if _, _, err := h.Poll("bogus"); err == nil {
			t.Error("foreign handle accepted by Poll")
		}

		hd := mustCall(t, h, "polled")
		start, polls := p.Now(), 0
		for {
			resp, done, err := h.Poll(hd)
			if err != nil {
				t.Fatal(err)
			}
			if polls++; done {
				if string(resp) != "polled" || h.conns[0].inUse[hd.slot] != nil {
					t.Fatalf("Poll = %q, slot still leased: %v", resp, h.conns[0].inUse[hd.slot] != nil)
				}
				break
			}
		}
		if p.Now().Sub(start) < simtime.Duration(polls)*testGap {
			t.Errorf("%d polls advanced the clock by only %v", polls, p.Now().Sub(start))
		}
		// The handle Poll settled is spent: refused, then the next Call's.
		if _, _, err := h.Poll(hd); err == nil {
			t.Error("a spent handle was polled again")
		}
		if next := mustCall(t, h, "reused"); next != hd || h.OpenHandles() != 1 {
			t.Errorf("next Call got a fresh handle (reused %v), %d open", next == hd, h.OpenHandles())
		}
		mustWait(t, h, hd, "reused")
		if h.OpenHandles() != 0 {
			t.Errorf("%d handles open after every result was handed out", h.OpenHandles())
		}

		if err := h.Put(1, []byte("bulk"), 0x1000); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 4)
		if err := h.Get(1, 0x1000, got); err != nil || string(got) != "bulk" {
			t.Fatalf("Get = %q, %v", got, err)
		}
		if h.Put(2, nil, 0) == nil || h.Get(2, 0, nil) == nil {
			t.Error("bulk transfer to a missing node accepted")
		}
		clk, before := h.Clock(), p.Now()
		clk.Sleep(simtime.Microsecond)
		clk.ChargeScalar(2600)
		clk.ChargeVector(1, 0, 1)
		if !clk.Simulated() || clk.Now() != p.Now() || p.Now().Sub(before) < 2*simtime.Microsecond {
			t.Errorf("Sleep+Charge advanced the clock by %v (clock reads %v)", p.Now().Sub(before), clk.Now())
		}

		// A transient bulk error passes through; a crashed process kills the
		// conn until RecoverNode.
		f := w.links[0]
		f.fail[fmt.Sprintf("get#%d", f.count["get"]+1)] = glitch{}
		if err := h.Get(1, 0x1000, got); !core.IsTransient(err) || h.conns[0].dead {
			t.Fatalf("glitched Get = %v, dead=%v", err, h.conns[0].dead)
		}
		f.always["put"] = fmt.Errorf("ve 0: %w", veos.ErrCrashed)
		if err := h.Put(1, nil, 0); !errors.Is(err, core.ErrNodeFailed) || !h.conns[0].dead {
			t.Fatalf("crashed Put = %v, dead=%v", err, h.conns[0].dead)
		}
		if _, err := h.Call(1, nil); !errors.Is(err, core.ErrNodeFailed) {
			t.Errorf("Call on a dead conn = %v", err)
		}
		if err := h.Get(1, 0, got); !errors.Is(err, core.ErrNodeFailed) {
			t.Errorf("Get on a dead conn = %v", err)
		}
		if err := h.RecoverNode(1); err != nil {
			t.Fatal(err)
		}
		mustWait(t, h, mustCall(t, h, "back"), "back")

		// Silence from a dead target fails the wait through the liveness probe.
		hd = mustCall(t, h, "orphan")
		w.links[1].dead = true
		if _, err := h.Wait(hd); !errors.Is(err, core.ErrNodeFailed) {
			t.Errorf("Wait on a silent dead target = %v", err)
		}
		p.Sleep(simtime.Microsecond) // let the target notice it is dead
		w.links[1].always["close"] = errBroken
		if err := h.Close(); !errors.Is(err, errBroken) {
			t.Errorf("Close = %v, want the transport's error", err)
		}
	})
	if len(w.serveErr) != 1 || !errors.Is(w.serveErr[0], veos.ErrCrashed) {
		t.Errorf("serve errors = %v, want one abort on the dead target", w.serveErr)
	}
}

// The serve loop's fault paths: a glitched flag load or fetch delays the
// message, a hard error ends the loop, and targets cannot initiate anything.
func TestTargetFaultPathsAndStubs(t *testing.T) {
	f, err := serveOnce(t, Options{}, stopAfter(1), func(f *fake) {
		f.loadCost = testPoll // only a load that costs has a fault site
		f.fail["load#1"], f.fail["fetch#1"] = glitch{}, glitch{}
	})
	if err != nil || f.sendFlag[0] != slots.Encode(0, 4) || string(f.sendInline[0]) != "ping" {
		t.Errorf("glitched load+fetch: Serve = %v, flag %#x, result %q", err, f.sendFlag[0], f.sendInline[0])
	}
	if f.count["load"] != 3 || f.count["fetch"] != 2 || f.count["push"] != 1 {
		t.Errorf("loaded %d times, fetched %d, pushed %d", f.count["load"], f.count["fetch"], f.count["push"])
	}
	for _, op := range []string{"load", "fetch", "push"} {
		if _, err := serveOnce(t, Options{}, &server{}, func(f *fake) { f.always[op] = errBroken }); !errors.Is(err, errBroken) {
			t.Errorf("hard %s error: Serve = %v", op, err)
		}
	}

	o := Options{}
	o.fill()
	tgt := newTarget(TargetConfig{Name: "fake", Options: o, Self: 3, Nodes: 5}, nil, testPoll, nil)
	if tgt.Self() != 3 || tgt.NumNodes() != 5 || tgt.Memory() != nil || tgt.Close() != nil {
		t.Errorf("Self/NumNodes = %d/%d", tgt.Self(), tgt.NumNodes())
	}
	for n, want := range map[core.NodeID]string{0: "vh", 3: "", 4: "node4"} {
		if d := tgt.Descriptor(n); d.Name != want {
			t.Errorf("Descriptor(%d) = %+v", n, d)
		}
	}
	_, callErr := tgt.Call(0, nil)
	_, waitErr := tgt.Wait(nil)
	_, _, pollErr := tgt.Poll(nil)
	for _, err := range []error{callErr, waitErr, pollErr, tgt.Put(0, nil, 0), tgt.Get(0, 0, nil), tgt.RecoverNode(0)} {
		if !errors.Is(err, core.ErrTargetOnly) {
			t.Errorf("target-side initiator call = %v", err)
		}
	}
}

// A flag word announcing more than a message buffer holds was not written by
// the protocol (Host.Call refuses to send such a message): the target stops
// with an error naming it instead of fetching past the buffer, and never
// dispatches.
func TestOversizeAnnouncementRefused(t *testing.T) {
	srv := &server{}
	f, err := serveOnce(t, Options{BufSize: 64}, srv, func(f *fake) {
		f.recvFlag[0] = slots.Encode(0, 65)
	})
	if err == nil || !strings.Contains(err.Error(), "fake: slot 0 announces a message of 65 bytes, buffer size is 64") {
		t.Fatalf("Serve = %v", err)
	}
	if srv.dispatched != 0 || f.count["fetch"] != 0 {
		t.Errorf("dispatched %d, fetched %d; want neither", srv.dispatched, f.count["fetch"])
	}
}

// The serve loop hands every message to Dispatch in the same receive buffer:
// what Dispatch saw must be intact while it runs, and a shorter message must
// not show the tail of the longer one before it.
func TestServeReusesReceiveBuffer(t *testing.T) {
	var seen []string
	var bufs []*byte
	w := &world{t: t, srv: &server{handle: func(_ *simtime.Proc, msg []byte) []byte {
		seen = append(seen, string(msg))
		bufs = append(bufs, &msg[0])
		return msg
	}}}
	w.run(Options{}, localPoll(), func(p *simtime.Proc, h *Host) {
		for _, m := range []string{"a longer first message", "short", "mid-sized one"} {
			resp, err := h.Wait(mustCall(t, h, m))
			if err != nil || string(resp) != m {
				t.Fatalf("echo of %q = %q, %v", m, resp, err)
			}
		}
	})
	if want := []string{"a longer first message", "short", "mid-sized one"}; !slices.Equal(seen, want) {
		t.Fatalf("Dispatch saw %q, want %q", seen, want)
	}
	if bufs[0] != bufs[1] || bufs[1] != bufs[2] {
		t.Error("every message should arrive in the one receive buffer")
	}
}

// A quiet target backs its poll gap off, and snaps back on the next message;
// here with a load that costs (and is therefore counted), below with a free
// one.
func TestIdleBackoff(t *testing.T) {
	w := &world{t: t, srv: &server{}, arm: func(f *fake) { f.loadCost = 50 * simtime.Nanosecond }}
	w.run(Options{}, localPoll(), func(p *simtime.Proc, h *Host) {
		p.Sleep(2 * simtime.Millisecond)
		f := w.links[0]
		if n := f.count["load"]; n > int(2*simtime.Millisecond/testPoll)/2 {
			t.Errorf("%d polls in 2 ms of silence: no backoff", n)
		}
		mustWait(t, h, mustCall(t, h, "wake"), "wake")
		before := f.count["load"]
		mustWait(t, h, mustCall(t, h, "hot"), "hot")
		if n := f.count["load"] - before; n > 16 {
			t.Errorf("%d polls between back-to-back offloads: interval not reset", n)
		}
	})
}

// OffloadTimeout also bounds a wait whose every poll is absorbed as a glitch:
// the deadline is checked on that path too.
func TestAbsorbedPollsHonourTimeout(t *testing.T) {
	w := &world{t: t, maxEvents: 100_000, arm: func(f *fake) { f.always["poll"] = glitch{} }}
	w.run(Options{OffloadTimeout: 50 * simtime.Microsecond}, remotePoll(), func(p *simtime.Proc, h *Host) {
		hd := mustCall(t, h, "m")
		start := p.Now()
		if _, err := h.Wait(hd); !errors.Is(err, core.ErrOffloadTimeout) {
			t.Fatalf("Wait = %v, want ErrOffloadTimeout", err)
		}
		if got := p.Now().Sub(start); got != 50*simtime.Microsecond {
			t.Errorf("timed out after %v, want 50us: 250 polls of %v", got, testGap)
		}
	})
	if w.runErr != nil {
		t.Fatalf("Run: %v", w.runErr)
	}
}

// Host.wait over a free poll is one park, and it ends on the tick the
// poll-by-poll loop ended on, with the loop's verdict. Times are from the
// start of the wait; the poll gap is 200 ns, so ticks fall on its multiples.
func TestWaitEndsOnTheLoopsTick(t *testing.T) {
	const ns = simtime.Nanosecond
	publish := func(f *fake) { f.sendInline[0], f.sendFlag[0] = []byte("r"), slots.Encode(0, 1) }
	crash := func(f *fake) { f.dead = true }
	for _, tc := range []struct {
		name    string
		timeout simtime.Duration
		at      simtime.Duration // when do runs, on a process spawned before the wait
		do      func(f *fake)
		want    simtime.Duration // when Wait returns
		err     error
		ticks   uint64 // polls that missed
	}{
		{"deadline on a tick", 1000 * ns, 0, nil, 1000 * ns, core.ErrOffloadTimeout, 4},
		{"deadline between ticks", 1100 * ns, 0, nil, 1200 * ns, core.ErrOffloadTimeout, 5},
		{"flag between ticks", 0, 700 * ns, publish, 800*ns + testGap, nil, 3},
		{"flag on a tick", 0, 800 * ns, publish, 800*ns + testGap, nil, 3},
		{"flag the tick before the deadline", 1000 * ns, 750 * ns, publish, 800*ns + testGap, nil, 3},
		// The loop looks at the clock before it looks at the flag.
		{"flag and deadline on one tick", 1000 * ns, 950 * ns, publish, 1000 * ns, core.ErrOffloadTimeout, 4},
		{"flag and deadline at one instant", 1000 * ns, 1000 * ns, publish, 1000 * ns, core.ErrOffloadTimeout, 4},
		// Local polls cannot fail: a dead target is silence until the liveness
		// probe of the next tick.
		{"crash between ticks", 0, 500 * ns, crash, 600 * ns, core.ErrNodeFailed, 2},
		{"crash on a tick", 0, 600 * ns, crash, 600 * ns, core.ErrNodeFailed, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := &world{t: t}
			w.run(Options{OffloadTimeout: tc.timeout}, localPoll(), func(p *simtime.Proc, h *Host) {
				hd := mustCall(t, h, "m")
				if tc.do != nil {
					p.Spawn("ve", func(vp *simtime.Proc) {
						vp.Sleep(tc.at)
						tc.do(w.links[0])
					})
				}
				start, ticks := p.Now(), w.eng.PollTicks()
				resp, err := h.Wait(hd)
				if !errors.Is(err, tc.err) || (err == nil && string(resp) != "r") {
					t.Fatalf("Wait = %q, %v; want error %v", resp, err, tc.err)
				}
				if got := p.Now().Sub(start); got != tc.want {
					t.Errorf("Wait returned after %v, want %v", got, tc.want)
				}
				if got := w.eng.PollTicks() - ticks; got != tc.ticks {
					t.Errorf("the engine took %d missed polls, want %d", got, tc.ticks)
				}
				if errors.Is(err, core.ErrOffloadTimeout) && tc.do != nil {
					mustWait(t, h, hd, "r") // the result the timeout passed over is still there
				}
			})
		})
	}
}

// idleGrid is the serve loop's idle polling as the loop performed it, one
// Sleep per missed poll: the first poll at or after event, for a target that
// went idle at from.
func idleGrid(from, event simtime.Time) simtime.Time {
	interval, idle := testPoll, simtime.Duration(0)
	tick := from
	for tick < event {
		tick = tick.Add(interval)
		idle += interval
		if idle >= 500*simtime.Microsecond && interval < testPoll*512 {
			interval *= 2
		}
	}
	return tick
}

// An idle target whose flag load is free parks once, yet sees each message,
// and the end of serving, on the poll the loop would have seen it on —
// through 10 ms of silence, the back-off and its reset.
func TestIdleTargetWakesOnTheLoopsGrid(t *testing.T) {
	var dispatched []simtime.Time
	w := &world{t: t, srv: &server{handle: func(vp *simtime.Proc, msg []byte) []byte {
		dispatched = append(dispatched, vp.Now())
		return msg
	}}}
	w.run(Options{}, localPoll(), func(p *simtime.Proc, h *Host) {
		idleSince := simtime.Time(0) // the target polls from its spawn on
		for i, silence := range []simtime.Duration{
			0, 100 * simtime.Microsecond, 0, 499 * simtime.Microsecond, 777 * simtime.Microsecond,
			3 * simtime.Millisecond, 0, 10 * simtime.Millisecond, 0, 0,
		} {
			p.Sleep(silence + simtime.Duration(i)) // off the grid
			published := p.Now().Add(testGap)      // Call: the overhead, then message and flag at once
			mustWait(t, h, mustCall(t, h, "m"), "m")
			if want := idleGrid(idleSince, published); dispatched[i] != want {
				t.Fatalf("message %d, published at %v after %v of silence, was seen at %v; the loop's poll was at %v",
					i, published, silence, dispatched[i], want)
			}
			idleSince = dispatched[i] // fetch, dispatch and respond are instantaneous here
		}
		ticks := w.eng.PollTicks()
		// Each silence past 500 us spends 3 333 polls at the base gap first.
		if max := uint64(15 * simtime.Millisecond / testPoll / 4); ticks == 0 || ticks > max {
			t.Errorf("the engine took %d missed polls, host and target, want some but under %d: no back-off", ticks, max)
		}
		p.Sleep(2*simtime.Millisecond + 1)
		w.srv.done = true
		doneAt := p.Now()
		p.Sleep(testPoll * 512)
		if w.serveErr != nil || w.serveEnd != idleGrid(idleSince, doneAt) {
			t.Errorf("Serve returned %v at %v; Done was set at %v, the loop's next poll was at %v",
				w.serveErr, w.serveEnd, doneAt, idleGrid(idleSince, doneAt))
		}
	})
}

// A flag load that costs is the engine's to issue while it is quiet: the
// target sees every message, and the end of serving, on the tick it saw them
// when it issued every load itself, after as many loads and in as many
// events — and switches for none of the loads that miss.
func TestQuietLoadsAreTheEngines(t *testing.T) {
	type outcome struct {
		dispatched []simtime.Time
		end        simtime.Time
		loads      int
		events     uint64
		maxq       int
		polls      uint64
	}
	serve := func(quiet bool) outcome {
		var o outcome
		w := &world{t: t, srv: &server{handle: func(vp *simtime.Proc, msg []byte) []byte {
			o.dispatched = append(o.dispatched, vp.Now())
			return msg
		}}, arm: func(f *fake) { f.loadCost, f.quiet = 50*simtime.Nanosecond, quiet }}
		w.run(Options{}, localPoll(), func(p *simtime.Proc, h *Host) {
			for i, silence := range []simtime.Duration{
				0, 100 * simtime.Microsecond, 0, 777 * simtime.Microsecond, 3 * simtime.Millisecond, 0,
			} {
				p.Sleep(silence + simtime.Duration(i)) // off the grid
				mustWait(t, h, mustCall(t, h, "m"), "m")
			}
			p.Sleep(2 * simtime.Millisecond)
			w.srv.done = true
			p.Sleep(testPoll * 1024)
			o.loads = w.links[0].count["load"]
		})
		o.end, o.events, o.maxq, o.polls = w.serveEnd, w.eng.Events(), w.eng.MaxQueueLen(), w.eng.PollTicks()
		return o
	}
	loop, engine := serve(false), serve(true)
	if !slices.Equal(engine.dispatched, loop.dispatched) || engine.end != loop.end {
		t.Errorf("dispatched at %v, Serve returned at %v; issuing every load itself, at %v and %v",
			engine.dispatched, engine.end, loop.dispatched, loop.end)
	}
	if engine.loads != loop.loads || engine.events != loop.events || engine.maxq != loop.maxq {
		t.Errorf("loads, Events, MaxQueueLen = %d, %d, %d; issuing every load itself %d, %d, %d",
			engine.loads, engine.events, engine.maxq, loop.loads, loop.events, loop.maxq)
	}
	// The engine issues every load but the first of each idle stretch (one
	// per message, and the last), and answers the end of every load that
	// missed.
	hits := len(loop.dispatched)
	if got, want := engine.polls-loop.polls, uint64((loop.loads-hits-1)+(loop.loads-hits)); got != want {
		t.Errorf("the engine answered %d more wakes, want %d: %d loads of which %d hit", got, want, loop.loads, hits)
	}
}
