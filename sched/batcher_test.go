package sched_test

import (
	"encoding/binary"
	"testing"

	"hamoffload/internal/core"
	"hamoffload/sched"
)

// stubBackend is a wall-clock host backend over in-process target runtimes.
// Call hands the message to park first, when set — the point where a
// simulated flush parks and another process runs — then dispatches it on
// the target and keeps a copy of the response for the handle. It records
// the entry count of every batch frame it is handed.
type stubBackend struct {
	targets []*core.Runtime // indexed by node; nil for the host
	park    func()
	frames  []int
}

// newStubHost builds a batching host runtime (frames of up to 4 messages)
// over a stubBackend with two target nodes, and a round-robin scheduler on it.
func newStubHost(t *testing.T, arch string) (*stubBackend, *sched.Scheduler) {
	t.Helper()
	b := &stubBackend{targets: make([]*core.Runtime, 3)}
	for n := 1; n < len(b.targets); n++ {
		b.targets[n] = core.NewRuntime(&stubBackend{targets: make([]*core.Runtime, 3)}, arch+"-target")
	}
	host := core.NewRuntime(b, arch+"-host")
	host.SetBatching(core.BatchPolicy{MaxMessages: 4})
	s, err := sched.New(host, sched.Targets(host), sched.RoundRobin())
	if err != nil {
		t.Fatal(err)
	}
	return b, s
}

func (b *stubBackend) Self() core.NodeID { return 0 }
func (b *stubBackend) NumNodes() int     { return len(b.targets) }
func (b *stubBackend) Descriptor(core.NodeID) core.NodeDescriptor {
	return core.NodeDescriptor{Name: "sched-stub"}
}

func (b *stubBackend) Call(target core.NodeID, msg []byte) (core.Handle, error) {
	if park := b.park; park != nil {
		b.park = nil
		park()
	}
	if len(msg) >= 8 {
		b.frames = append(b.frames, int(binary.LittleEndian.Uint32(msg[4:8])))
	}
	resp := append([]byte(nil), b.targets[target].Dispatch(msg)...)
	return &resp, nil
}

func (b *stubBackend) Wait(h core.Handle) ([]byte, error) { return *h.(*[]byte), nil }
func (b *stubBackend) Poll(h core.Handle) ([]byte, bool, error) {
	return *h.(*[]byte), true, nil
}
func (b *stubBackend) Put(core.NodeID, []byte, uint64) error { return nil }
func (b *stubBackend) Get(core.NodeID, uint64, []byte) error { return nil }
func (b *stubBackend) Serve(core.Server) error               { return nil }
func (b *stubBackend) Memory() core.LocalMemory              { return nil }
func (b *stubBackend) Clock() core.Clock                     { return core.WallClock }
func (b *stubBackend) MaxMessageLen() int                    { return 1 << 20 }
func (b *stubBackend) RecoverNode(core.NodeID) error         { return core.ErrUnsupported }
func (b *stubBackend) Close() error                          { return nil }

// checkResults gets every future and checks it holds task+base.
func checkResults(t *testing.T, who string, futs []*core.Future[int64], base int64) {
	t.Helper()
	for task, f := range futs {
		if v, err := f.Get(); err != nil || v != int64(task)+base {
			t.Errorf("%s task %d = %d, %v; want %d", who, task, v, err, int64(task)+base)
		}
	}
}

// sum adds up frame entry counts.
func sum(frames []int) int {
	n := 0
	for _, c := range frames {
		n += c
	}
	return n
}

// TestMapFuturesParkedCallsOwnBatchers: while the first frame flush of one
// MapFutures call is parked, another caller runs a whole MapFutures on the
// same scheduler. The second call takes a batcher of its own — sharing the
// parked one would build its frames in the arena the parked post has not
// read yet — so every result belongs to its own task and every task settles.
func TestMapFuturesParkedCallsOwnBatchers(t *testing.T) {
	const n = 20
	b, s := newStubHost(t, "sched-park")
	var second []*core.Future[int64]
	b.park = func() {
		second = sched.MapFutures(s, n, func(task int) core.Functor[int64] { return schedAdd.Bind(int64(task), 2000) })
	}
	first := sched.MapFutures(s, n, func(task int) core.Functor[int64] { return schedAdd.Bind(int64(task), 1000) })
	if second == nil {
		t.Fatal("no flush parked the first call")
	}
	checkResults(t, "first", first, 1000)
	checkResults(t, "second", second, 2000)
	if s.Issued() != 2*n || s.Completed() != s.Issued() {
		t.Errorf("%d of %d tasks settled, want %d of %d", s.Completed(), s.Issued(), 2*n, 2*n)
	}
	if got := sum(b.frames); got != 2*n {
		t.Errorf("frames carried %d entries, want %d", got, 2*n)
	}
}

// TestMapFuturesPanicDropsItsBatcher: a gen that panics mid-call leaves
// entries queued in its call's batcher, unflushed. That batcher is not put
// back, so the next call's frames carry its own tasks and nothing else.
func TestMapFuturesPanicDropsItsBatcher(t *testing.T) {
	const n = 8
	b, s := newStubHost(t, "sched-panic")
	func() {
		defer func() {
			if r := recover(); r != "gen" {
				t.Fatalf("recovered %v, want the gen panic", r)
			}
		}()
		sched.MapFutures(s, n, func(task int) core.Functor[int64] {
			if task == 6 {
				panic("gen")
			}
			return schedAdd.Bind(int64(task), 1000)
		})
	}()
	if len(b.frames) != 0 {
		t.Fatalf("the panicking call shipped %d frames before its panic; want its tasks still queued", len(b.frames))
	}
	futs := sched.MapFutures(s, n, func(task int) core.Functor[int64] { return schedAdd.Bind(int64(task), 3000) })
	checkResults(t, "next", futs, 3000)
	if got := sum(b.frames); got != n {
		t.Errorf("the next call's frames carried %d entries (%v), want its own %d", got, b.frames, n)
	}
}
