package sched

import (
	"errors"
	"testing"
	"unsafe"

	"hamoffload/internal/core"
	"hamoffload/internal/simtime"
	"hamoffload/machine"
	"hamoffload/sched/health"
)

// This file sits inside the package because both questions are about the
// MapFutures slab record, which the API does not show.

// TestTaskRecordSize pins a MapFutures task's slab record at 48 B: the 32-B
// future first, then its node's slot (the scheduler and the node index,
// built once per node) and the issue stamp. The records sit back to back in
// one slab, so every byte here is a byte per task: a 512-task wave's slab is
// 24 KiB, a small object. The node and the settle observer are the
// scheduler's, read through the slot, not copied into every task.
func TestTaskRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(task[int64]{}); got != 48 {
		t.Errorf("task[int64] is %d B, want 48", got)
	}
	if got := unsafe.Offsetof(task[int64]{}.fut); got != 0 {
		t.Errorf("task[int64].fut is at offset %d, want 0", got)
	}
}

// observeWork fails every fifth task and charges the rest in proportion to
// their index, so latencies differ from task to task and node to node.
var observeWork = core.NewFunc2[int64]("sched.observe_work",
	func(c *core.Ctx, task, _ int64) (int64, error) {
		if task%5 == 0 {
			return 0, errors.New("sched.observe_work: refused")
		}
		c.ChargeVector(1000*(task+1), 125*(task+1), 8)
		return task, nil
	})

// tapPolicy is HealthAware with a tap on it: it records the node each task
// was placed on and every settlement the scheduler observes, and passes both
// on to the health-aware policy.
type tapPolicy struct {
	Policy // HealthAware over a tracker
	clock  func() simtime.Time
	placed []core.NodeID // by task
	seen   []observation
}

type observation struct {
	node   core.NodeID
	lat    simtime.Duration
	failed bool
	at     simtime.Time
}

func (p *tapPolicy) Pick(task int, nodes []core.NodeID, inflight []int) int {
	i := p.Policy.Pick(task, nodes, inflight)
	p.placed = append(p.placed, nodes[i])
	return i
}

func (p *tapPolicy) observe(n core.NodeID, lat simtime.Duration, failed bool) {
	p.seen = append(p.seen, observation{n, lat, failed, p.clock()})
	p.Policy.(settleObserver).observe(n, lat, failed)
}

// settledAt is a further settle hook on one task's future. It runs right
// after the task's own record, and claims the observation that record made.
type settledAt struct {
	tap  *tapPolicy
	obs  int // index into tap.seen, -1 until settled
	at   simtime.Time
	runs int
}

func (h *settledAt) FutureSettled() {
	h.obs, h.at = len(h.tap.seen)-1, h.tap.clock()
	h.runs++
}

// TestMapFuturesFeedsObserver: under HealthAware over two VEs, every task
// of a MapFutures call is observed exactly once, at its settlement, on the
// node it was placed on, with the latency from its issue stamp to then and
// its outcome; the tracker sees each node's failures, and the scheduler's
// in-flight slots all come back.
func TestMapFuturesFeedsObserver(t *testing.T) {
	const n = 40
	m, err := machine.New(machine.Config{VEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	err = m.RunMain(func(p *machine.Proc) error {
		rt, err := machine.ConnectDMA(p, m, machine.ProtocolOptions{Batch: core.BatchPolicy{MaxMessages: 4}})
		if err != nil {
			return err
		}
		defer func() { _ = rt.Finalize() }()
		nodes := []core.NodeID{1, 2}
		// One failure opens a breaker, so each node's first failed task
		// shows that the tracker saw it.
		trk := health.New(health.Config{FailureStrikes: 1}, nodes, rt.SimNow)
		tap := &tapPolicy{Policy: HealthAware(RoundRobin(), trk), clock: rt.SimNow}
		s, err := New(rt, nodes, tap)
		if err != nil {
			return err
		}
		if s.obs != settleObserver(tap) {
			t.Fatal("New did not resolve the policy as the settle observer")
		}
		before := rt.SimNow()
		futs := MapFutures(s, n, func(task int) core.Functor[int64] { return observeWork.Bind(int64(task), 0) })
		after := rt.SimNow()
		hooks := make([]settledAt, n)
		for k, f := range futs {
			hooks[k] = settledAt{tap: tap, obs: -1}
			f.OnSettleHook(&hooks[k])
		}
		if len(tap.seen) != 0 {
			t.Fatalf("%d tasks observed before any future was waited on", len(tap.seen))
		}
		for _, f := range futs {
			_, _ = f.Get()
		}
		if len(tap.seen) != n || len(tap.placed) != n {
			t.Fatalf("%d observations and %d placements of %d tasks", len(tap.seen), len(tap.placed), n)
		}
		claimed := make([]bool, n)
		perNode := map[core.NodeID][2]int64{}
		for k, f := range futs {
			h := &hooks[k]
			if h.runs != 1 || h.obs < 0 || claimed[h.obs] {
				t.Fatalf("task %d: settled %d times, observation %d (claimed before: %v)",
					k, h.runs, h.obs, h.obs >= 0 && claimed[h.obs])
			}
			claimed[h.obs] = true
			o := tap.seen[h.obs]
			start := (*task[int64])(unsafe.Pointer(f)).start
			_, ferr := f.Get()
			switch {
			case o.node != tap.placed[k]:
				t.Errorf("task %d observed on node %d, placed on %d", k, o.node, tap.placed[k])
			case start < before || start > after:
				t.Errorf("task %d stamped issued at %v, outside its MapFutures call [%v, %v]", k, start, before, after)
			case o.at != h.at:
				t.Errorf("task %d observed at %v, settled at %v", k, o.at, h.at)
			case o.lat != h.at.Sub(start) || o.lat <= 0:
				t.Errorf("task %d observed latency %v, want settle %v - issue %v = %v", k, o.lat, h.at, start, h.at.Sub(start))
			case o.failed != (ferr != nil) || o.failed != (k%5 == 0):
				t.Errorf("task %d observed failed=%v, its future's error %v", k, o.failed, ferr)
			}
			c := perNode[o.node]
			c[0]++
			if o.failed {
				c[1]++
			}
			perNode[o.node] = c
		}
		// Every task was placed before any settled, so no open breaker moved
		// a placement, and an open breaker ignores later settlements.
		for _, node := range nodes {
			if c := perNode[node]; c[0] == 0 || c[1] == 0 || trk.StateOf(node) != health.Open {
				t.Errorf("node %d: the scheduler observed %d settlements (%d failed), the tracker's breaker is %v; want it opened",
					node, c[0], c[1], trk.StateOf(node))
			}
		}
		if got := trk.Transitions(); got != int64(len(nodes)) {
			t.Errorf("the tracker made %d breaker transitions, want one per node", got)
		}
		for i, v := range s.inflight {
			if v != 0 {
				t.Errorf("node %d still has %d tasks in flight", nodes[i], v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// sizedWork returns the length of its argument.
var sizedWork = core.NewFunc1[int64]("sched.sized_work",
	func(_ *core.Ctx, b []byte) (int64, error) { return int64(len(b)), nil })

// TestMapFuturesSyncFailureStaysSettled: tasks whose offload fails while
// MapFutures issues it — a message over the maximum message length, or a
// post to a crashed VE — are settled when MapFutures returns, one wire
// message per task or in batch frames. Each such future is done with its
// error, Test does not put it back in flight, a hook registered afterwards
// runs exactly once, and every in-flight slot comes back.
func TestMapFuturesSyncFailureStaysSettled(t *testing.T) {
	const n = 16
	big := sizedWork.Bind(make([]byte, 8<<10))
	small := sizedWork.Bind([]byte{1, 2, 3})
	for _, batch := range []core.BatchPolicy{{}, {MaxMessages: 4}} {
		m, err := machine.New(machine.Config{VEs: 2})
		if err != nil {
			t.Fatal(err)
		}
		err = m.RunMain(func(p *machine.Proc) error {
			rt, err := machine.ConnectDMA(p, m, machine.ProtocolOptions{Batch: batch})
			if err != nil {
				return err
			}
			defer func() { _ = rt.Finalize() }()
			s, err := New(rt, []core.NodeID{1, 2}, RoundRobin())
			if err != nil {
				return err
			}
			m.Cards[1].Kill() // odd tasks go to node 2
			futs := MapFutures(s, n, func(task int) core.Functor[int64] {
				if task%4 == 0 {
					return big
				}
				return small
			})
			for k, f := range futs {
				if k%4 == 2 {
					continue // the one kind of task that succeeds
				}
				if !f.Done() || !f.Test() {
					t.Fatalf("batch %+v: failed task %d not settled when MapFutures returned", batch, k)
				}
				_, err := f.Get()
				if err == nil || (k%2 == 1 && !errors.Is(err, core.ErrNodeFailed)) {
					t.Errorf("batch %+v: task %d Get() error %v", batch, k, err)
				}
				runs := 0
				f.OnSettle(func() { runs++ })
				f.Test()
				if runs != 1 {
					t.Errorf("batch %+v: a hook registered on failed task %d ran %d times, want 1", batch, k, runs)
				}
			}
			for k, f := range futs {
				if v, err := f.Get(); k%4 == 2 && (v != 3 || err != nil) {
					t.Errorf("batch %+v: task %d = %d, %v; want 3", batch, k, v, err)
				}
			}
			for i, v := range s.inflight {
				if v != 0 {
					t.Errorf("batch %+v: node %d still has %d tasks in flight", batch, i+1, v)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
