package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"hamoffload/internal/ham"
	"hamoffload/internal/simtime"
	"hamoffload/internal/trace"
)

// Response manglers for the scripted backend (retry_test.go). Each works on
// a bare response and on a response frame alike.

// emptyFirst blanks the first entry (or the whole bare response): under FT
// the envelope is gone, without it the payload does not decode.
func emptyFirst(resp []byte) []byte {
	subs, isBatch, _ := openBatch(resp)
	if !isBatch {
		return nil
	}
	subs[0] = nil
	return sealBatch(subs)
}

// dropLast answers a frame with one entry too few.
func dropLast(resp []byte) []byte {
	subs, _, _ := openBatch(resp)
	return sealBatch(subs[:len(subs)-1])
}

// plainFailure is what a target that could not parse the request says: a
// failure response, neither enveloped nor framed.
func plainFailure([]byte) []byte { return ham.EncodeFailure("unparseable request") }

// lifeWant is what one scenario leaves behind on node 1's message.
type lifeWant struct {
	fail      error  // every future fails with this class
	failText  string // every future fails with an error carrying this text
	firstOnly bool   // only the first future fails (untyped), the rest carry values
	retries   int64
	timeouts  int64
	execs     int // handler executions per value
}

var (
	errLifeGone = fmt.Errorf("stub: %w", ErrNodeFailed)
	lifeOK      = lifeWant{execs: 1}
	lifeRetried = lifeWant{retries: 1, execs: 1}
)

// lifeScenarios: what happens to the message bound for node 1, and what
// that means with fault tolerance off and on.
var lifeScenarios = []struct {
	name      string
	script    []step
	frameOnly bool
	off, on   lifeWant
}{
	{name: "ok", off: lifeOK, on: lifeOK},
	{name: "transient then ok", script: []step{{waitErr: transientErr{}}},
		off: lifeWant{fail: transientErr{}, execs: 1}, on: lifeRetried},
	{name: "corrupt entry then ok", script: []step{{mangle: emptyFirst}},
		off: lifeWant{firstOnly: true, execs: 1}, on: lifeRetried},
	{name: "unframed answer", script: []step{{mangle: plainFailure}},
		off: lifeWant{failText: "unparseable request", execs: 1}, on: lifeRetried},
	{name: "wrong entry count", script: []step{{mangle: dropLast}}, frameOnly: true,
		off: lifeWant{fail: ErrPayloadCorrupt, execs: 1}, on: lifeRetried},
	{name: "permanent failure", script: []step{{waitErr: errLifeGone}},
		off: lifeWant{fail: ErrNodeFailed, execs: 1}, on: lifeWant{fail: ErrNodeFailed, execs: 1}},
	{name: "post failure", script: []step{{postErr: errLifeGone}},
		off: lifeWant{fail: ErrNodeFailed}, on: lifeWant{fail: ErrNodeFailed}},
	{name: "re-post times out", script: repostTimesOut(),
		off: lifeWant{fail: ErrPayloadCorrupt, execs: 1},
		on:  lifeWant{fail: ErrOffloadTimeout, retries: 1, timeouts: 1, execs: 1}},
}

// TestCallLifecycle drives every shape of wire message through every way
// it can end, harvested by Get and by a Test loop, and checks that each
// future settles exactly once with the right outcome and that the calls
// come back clean. Two messages are kept open at once — the scripted one to
// node 1 and a healthy one to node 2 — so the free list has a peak to match.
func TestCallLifecycle(t *testing.T) {
	shapes := []struct {
		name  string
		frame bool
		n     int
	}{{"bare", false, 1}, {"frame of 1", true, 1}, {"frame of 3", true, 3}}
	for _, sh := range shapes {
		for _, ft := range []bool{false, true} {
			for _, sc := range lifeScenarios {
				if sc.frameOnly && !sh.frame {
					continue
				}
				for _, harvest := range []string{"Get", "Test loop"} {
					name := fmt.Sprintf("%s/ft=%v/%s/%s", sh.name, ft, sc.name, harvest)
					t.Run(name, func(t *testing.T) {
						want := sc.off
						if ft {
							want = sc.on
						}
						runLifecycle(t, sh.frame, sh.n, ft, sc.script, harvest == "Get", want)
					})
				}
			}
		}
	}
}

func runLifecycle(t *testing.T, frame bool, n int, ft bool, script []step, useGet bool, want lifeWant) {
	clear(lifeExecs)
	rt, tr := scriptRuntime(newScriptBackend(script...), ft)
	var b *Batcher
	if frame {
		rt.SetBatching(BatchPolicy{MaxMessages: 8})
		b = TakeBatcher(rt)
	}
	// Futures 0..n-1 ride the scripted message to node 1, n..2n-1 the
	// healthy one to node 2; future i carries value i+1.
	futs := make([]*Future[int64], 2*n)
	var hooks [2][]int // settle order per message
	for i := range futs {
		node := NodeID(1 + i/n)
		if frame {
			futs[i] = BatchAdd(b, node, fnLifeEcho.Bind(int64(i+1)))
		} else {
			futs[i] = Async(rt, node, fnLifeEcho.Bind(int64(i+1)))
		}
		futs[i].OnSettle(func() { hooks[i/n] = append(hooks[i/n], i) })
	}
	if useGet {
		for _, f := range futs {
			f.Get()
		}
	} else {
		for round, pending := 0, true; pending; round++ {
			if round > 20 {
				t.Fatal("futures still in flight after 20 rounds of Test")
			}
			pending = false
			for _, f := range futs {
				if !f.Test() {
					pending = true
				}
			}
		}
	}

	for i, f := range futs {
		if !f.Test() {
			t.Fatalf("future %d not settled", i)
		}
		v, err := f.Get()
		w := want
		if i >= n {
			w = lifeOK
		}
		switch {
		case w.fail != nil:
			if !errors.Is(err, w.fail) {
				t.Errorf("future %d: err = %v, want %v", i, err, w.fail)
			}
		case w.failText != "":
			if err == nil || !strings.Contains(err.Error(), w.failText) {
				t.Errorf("future %d: err = %v, want one carrying %q", i, err, w.failText)
			}
		case w.firstOnly && i == 0:
			if err == nil {
				t.Errorf("future %d: blanked response decoded to %d", i, v)
			}
		default:
			if err != nil || v != int64(i+1) {
				t.Errorf("future %d = %d, %v; want %d", i, v, err, i+1)
			}
		}
		if got := lifeExecs[int64(i+1)]; got != w.execs {
			t.Errorf("value %d executed %d times, want %d", i+1, got, w.execs)
		}
	}
	for m, got := range hooks {
		for j, i := range got {
			if i != m*n+j {
				t.Errorf("message %d settled futures in order %v", m, got)
				break
			}
		}
		if len(got) != n {
			t.Errorf("message %d fired %d settle hooks for %d futures", m, len(got), n)
		}
	}
	if got := countSpans(tr, trace.PhaseOffload, ""); got != len(futs) {
		t.Errorf("%d offload spans closed for %d futures", got, len(futs))
	}
	if rt.Retries() != want.retries {
		t.Errorf("Retries() = %d, want %d", rt.Retries(), want.retries)
	}
	if got := countSpans(tr, trace.PhaseTimeout, ""); int64(got) != want.timeouts {
		t.Errorf("%d timeout trace instants, want %d", got, want.timeouts)
	}

	// Every call is parked again, as many as messages were open at once, and
	// a parked call reaches nothing of the message it carried.
	peak := 2
	if !frame && len(script) > 0 && script[0].postErr != nil {
		peak = 1 // a bare message that fails to post is over before the next one starts
	}
	parked := parkedCalls(rt)
	if len(parked) != peak {
		t.Fatalf("free list holds %d calls after %d messages in flight", len(parked), peak)
	}
	if b != nil {
		b.Release()
	}
	if c, h, bs := rt.OpenCalls(), rt.hooks.Live(), rt.batchers.Live(); c != 0 || h != 0 || bs != 0 {
		t.Errorf("%d calls, %d hook chains and %d batchers still taken with every future settled", c, h, bs)
	}
	for _, c := range parked {
		if !c.done || c.h != nil || c.pd != nil || c.q != nil || c.frame {
			t.Errorf("parked call keeps state: %+v", c)
		}
		for _, s := range c.sinks[:cap(c.sinks)] {
			if s.s != nil || s.dec != nil {
				t.Errorf("parked call keeps a sink or its decoder")
			}
		}
		for _, pd := range c.pds[:cap(c.pds)] {
			if pd != nil {
				t.Errorf("parked call keeps retransmission state")
			}
		}
		for _, sub := range c.subs[:cap(c.subs)] {
			if sub != nil {
				t.Errorf("parked call keeps response bytes")
			}
		}
	}
}

// TestFramesNeverHedge: on a hedging-armed runtime a bare offload to a slow
// node hedges once the delay passes, a batch frame to the same node waits
// it out.
func TestFramesNeverHedge(t *testing.T) {
	b := newResBackend(500*simtime.Microsecond, 2*simtime.Microsecond)
	rt := resRuntime(b)
	rt.SetHedging(HedgePolicy{Delay: 10 * simtime.Microsecond, Targets: []NodeID{2}})
	rt.SetBatching(BatchPolicy{MaxMessages: 8})

	bat := NewBatcher(rt)
	f1, f2 := BatchAdd(bat, 1, fnResEcho.Bind(1)), BatchAdd(bat, 1, fnResEcho.Bind(2))
	if v, err := f1.Get(); v != 1 || err != nil {
		t.Fatalf("frame entry = %d, %v", v, err)
	}
	if v, err := f2.Get(); v != 2 || err != nil {
		t.Fatalf("frame entry = %d, %v", v, err)
	}
	if rt.Hedges() != 0 || b.calls[2] != 0 {
		t.Fatalf("a frame hedged: hedges = %d, calls = %v", rt.Hedges(), b.calls)
	}
	if v, err := Sync(rt, 1, fnResEcho.Bind(3)); v != 3 || err != nil {
		t.Fatalf("Sync = %d, %v", v, err)
	}
	if rt.Hedges() != 1 || b.calls[2] != 1 {
		t.Fatalf("bare offload to the slow node: hedges = %d, calls = %v; want one hedge", rt.Hedges(), b.calls)
	}
}
