package simtime

import "testing"

// queuePoll consumes a queue the way veos's worker and mpib's proxy do:
// TryPop, and while the queue is empty a Proc.Poll on a Watch that Push
// notifies, whose free poll hits once an item is queued.
type queuePoll[T any] struct {
	Free
	Watch
	q *Queue[T]
}

// newQueuePoll makes q notify a fresh poll that ticks every gap.
func newQueuePoll[T any](q *Queue[T], gap Duration) *queuePoll[T] {
	qp := &queuePoll[T]{Watch: Watch{Backoff: Backoff{Base: gap, Max: gap}}, q: q}
	q.Notifies(&qp.Watch)
	return qp
}

// Hit implements Poller.
func (qp *queuePoll[T]) Hit() bool { return qp.q.Len() > 0 }

// pop returns the oldest item, polling through poll while the queue is empty.
func (qp *queuePoll[T]) pop(p *Proc, poll pollFn) T {
	for {
		if v, ok := qp.q.TryPop(); ok {
			return v
		}
		poll(p, qp, &qp.Watch, 0)
	}
}

func TestQueueFIFO(t *testing.T) {
	e := NewEngine()
	q := new(Queue[int])
	qp := newQueuePoll(q, 1)
	var got []int
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			q.Push(p, i)
			p.Sleep(10)
		}
	})
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, qp.pop(p, enginePoll))
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got = %v, want 0..4 in order", got)
		}
	}
}

// A consumer's poll of an empty queue parks until the push, and wakes at the
// push's instant on its grid, for no event in between.
func TestQueuePopBlocksUntilPush(t *testing.T) {
	e := NewEngine()
	q := new(Queue[string])
	qp := newQueuePoll(q, 5)
	e.Spawn("consumer", func(p *Proc) {
		v := qp.pop(p, enginePoll)
		if v != "hello" {
			t.Errorf("got %q", v)
		}
		if p.Now() != 25 {
			t.Errorf("received at %v, want 25", p.Now())
		}
	})
	e.Spawn("producer", func(p *Proc) {
		p.Sleep(25)
		q.Push(p, "hello")
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Two spawn wakes, the producer's sleep and the consumer's one poll wake.
	if e.Events() != 4 {
		t.Errorf("Events = %d, want 4", e.Events())
	}
}

func TestQueueTryPop(t *testing.T) {
	e := NewEngine()
	q := new(Queue[int])
	e.Spawn("main", func(p *Proc) {
		if _, ok := q.TryPop(); ok {
			t.Error("TryPop on empty queue returned ok")
		}
		q.Push(p, 7)
		v, ok := q.TryPop()
		if !ok || v != 7 {
			t.Errorf("TryPop = %d,%v want 7,true", v, ok)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// Storage stays bounded by the backlog, not by the items ever pushed, through
// a poll's pop and through a bare TryPop alike (veos's worker loop and mpib's
// proxy consume their queues through TryPop), both when every take drains
// the queue and when a standing backlog keeps it from ever draining.
func TestQueueCompaction(t *testing.T) {
	for _, tc := range []struct {
		name    string
		backlog int
		tryPop  bool
	}{
		{"Pop/drained", 0, false},
		{"Pop/backlog", 100, false},
		{"TryPop/drained", 0, true},
		{"TryPop/backlog", 100, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			q := new(Queue[int])
			qp := newQueuePoll(q, 1)
			e.Spawn("main", func(p *Proc) {
				for i := 0; i < tc.backlog; i++ {
					q.Push(p, i)
				}
				for i := 0; i < 100_000; i++ {
					q.Push(p, tc.backlog+i)
					v := -1
					if tc.tryPop {
						v, _ = q.TryPop()
					} else {
						v = qp.pop(p, enginePoll)
					}
					if v != i {
						t.Fatalf("take %d = %d", i, v)
					}
				}
				if q.Len() != tc.backlog {
					t.Fatalf("Len = %d, want %d", q.Len(), tc.backlog)
				}
				if c := cap(q.items.buf); c > 4*(tc.backlog+64) {
					t.Fatalf("cap(items) = %d after 100000 takes with a backlog of %d", c, tc.backlog)
				}
			})
			if err := e.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
		})
	}
}
