package core

import (
	"errors"
	"fmt"
	"testing"

	"hamoffload/internal/trace"
)

// lifeExecs counts handler executions per argument value: at-most-once is
// "no value above 1".
var lifeExecs = map[int64]int{}

var fnLifeEcho = NewFunc1[int64]("test.lifeecho",
	func(_ *Ctx, v int64) (int64, error) { lifeExecs[v]++; return v, nil })

// step says how one Call to the scripted node ends.
type step struct {
	postErr error                    // the post itself fails with it
	waitErr error                    // the post succeeds, Poll and Wait fail with it
	mangle  func(resp []byte) []byte // rewrites the target's response on its way back
}

// scriptCall is the handle of one scripted post.
type scriptCall struct {
	resp   []byte
	err    error
	polled bool // the first Poll of every handle reports "still in flight"
}

// scriptBackend is a wall-clock Backend stub. Node 0 initiates; nodes 1 and
// 2 each dispatch on their own runtime. Successive Calls to node 1 consume
// the script, one step each (clean once it runs out); node 2 always answers.
type scriptBackend struct {
	allocBackend
	targets [3]*Runtime
	script  []step
}

func newScriptBackend(script ...step) *scriptBackend {
	b := &scriptBackend{script: script}
	for i := 1; i < len(b.targets); i++ {
		b.targets[i] = NewRuntime(&allocBackend{}, fmt.Sprintf("script-arch-%d", i))
	}
	return b
}

func (b *scriptBackend) NumNodes() int { return len(b.targets) }

func (b *scriptBackend) Call(target NodeID, msg []byte) (Handle, error) {
	var st step
	if target == 1 && len(b.script) > 0 {
		st, b.script = b.script[0], b.script[1:]
	}
	if st.postErr != nil {
		return nil, st.postErr
	}
	resp := append([]byte(nil), b.targets[target].Dispatch(msg)...)
	if st.mangle != nil {
		resp = st.mangle(resp)
	}
	return &scriptCall{resp: resp, err: st.waitErr}, nil
}

func (b *scriptBackend) Wait(h Handle) ([]byte, error) {
	sc := h.(*scriptCall)
	return sc.resp, sc.err
}

func (b *scriptBackend) Poll(h Handle) ([]byte, bool, error) {
	sc := h.(*scriptCall)
	if !sc.polled {
		sc.polled = true
		return nil, false, nil
	}
	return sc.resp, sc.err == nil, sc.err
}

// scriptRuntime builds the initiating runtime over b with a tracer attached,
// so tests can count lifecycle spans and instants.
func scriptRuntime(b *scriptBackend, ft bool) (*Runtime, *trace.Tracer) {
	rt := NewRuntime(b, "script-arch-host")
	if ft {
		rt.SetFaultTolerance(FaultTolerance{MaxRetries: 3})
	}
	tr := trace.NewTracer()
	rt.SetTracer(tr.Node(0, "script", WallClock))
	return rt, tr
}

// countSpans counts tr's records of one phase and name ("" = any name).
func countSpans(tr *trace.Tracer, ph trace.Phase, name string) int {
	n := 0
	for _, s := range tr.Spans() {
		if s.Phase == ph && (name == "" || s.Name == name) {
			n++
		}
	}
	return n
}

// repostTimesOut is the script of the double-count regression: the first
// post goes through, its response is lost to a transient error, and the one
// re-post the policy allows runs into a draining slot.
func repostTimesOut() []step {
	return []step{
		{waitErr: fmt.Errorf("lost response: %w", ErrPayloadCorrupt)},
		{postErr: fmt.Errorf("draining slot: %w", ErrOffloadTimeout)},
	}
}

// TestRepostTimeoutCountedOnce: an offload whose re-post fails with a
// timeout is one timed-out offload, whichever of Test or Get observed the
// transient failure that led to the re-post.
func TestRepostTimeoutCountedOnce(t *testing.T) {
	for _, frame := range []bool{false, true} {
		for _, testFirst := range []bool{false, true} {
			name := fmt.Sprintf("frame=%v/testFirst=%v", frame, testFirst)
			rt, tr := scriptRuntime(newScriptBackend(repostTimesOut()...), true)
			var futs []*Future[int64]
			if frame {
				rt.SetBatching(BatchPolicy{MaxMessages: 8})
				b := NewBatcher(rt)
				futs = append(futs, BatchAdd(b, 1, fnLifeEcho.Bind(1)), BatchAdd(b, 1, fnLifeEcho.Bind(2)))
			} else {
				futs = append(futs, Async(rt, 1, fnLifeEcho.Bind(1)))
			}
			if testFirst {
				for i := 0; i < 3 && !futs[0].Test(); i++ {
				}
			}
			for _, f := range futs {
				if _, err := f.Get(); !errors.Is(err, ErrOffloadTimeout) {
					t.Errorf("%s: Get = %v, want ErrOffloadTimeout", name, err)
				}
			}
			if rt.Retries() != 1 {
				t.Errorf("%s: Retries() = %d, want 1", name, rt.Retries())
			}
			if n := countSpans(tr, trace.PhaseTimeout, "offload timeout"); n != 1 {
				t.Errorf("%s: %d offload-timeout trace instants, want 1", name, n)
			}
		}
	}
}
