package simtime

import "testing"

func TestQueueFIFO(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e, "q")
	var got []int
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			q.Push(i)
			p.Sleep(10)
		}
	})
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, q.Pop(p))
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

func TestQueuePopBlocksUntilPush(t *testing.T) {
	e := NewEngine()
	q := NewQueue[string](e, "q")
	e.Spawn("consumer", func(p *Proc) {
		v := q.Pop(p)
		if v != "hello" {
			t.Errorf("got %q", v)
		}
		if p.Now() != 25 {
			t.Errorf("received at %v, want 25", p.Now())
		}
	})
	e.Spawn("producer", func(p *Proc) {
		p.Sleep(25)
		q.Push("hello")
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestQueueMultipleConsumers(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e, "q")
	sum := 0
	for i := 0; i < 3; i++ {
		e.Spawn("consumer", func(p *Proc) {
			sum += q.Pop(p)
		})
	}
	e.Spawn("producer", func(p *Proc) {
		p.Sleep(1)
		q.Push(1)
		q.Push(2)
		q.Push(3)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sum != 6 {
		t.Fatalf("sum = %d, want 6", sum)
	}
}

func TestQueueTryPop(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e, "q")
	e.Spawn("main", func(p *Proc) {
		if _, ok := q.TryPop(); ok {
			t.Error("TryPop on empty queue returned ok")
		}
		q.Push(7)
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
// Pop and through TryPop alike (veos's worker loop and mpib's proxy consume
// their queues only through TryPop), both when every take drains the queue
// and when a standing backlog keeps it from ever draining.
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
			q := NewQueue[int](e, "q")
			e.Spawn("main", func(p *Proc) {
				for i := 0; i < tc.backlog; i++ {
					q.Push(i)
				}
				for i := 0; i < 100_000; i++ {
					q.Push(tc.backlog + i)
					v := -1
					if tc.tryPop {
						v, _ = q.TryPop()
					} else {
						v = q.Pop(p)
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
