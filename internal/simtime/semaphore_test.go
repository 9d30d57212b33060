package simtime

import "testing"

func TestSemaphoreBasic(t *testing.T) {
	e := NewEngine()
	s := NewSemaphore(e, "cores", 8)
	if s.Total() != 8 || s.free != 8 {
		t.Fatalf("fresh semaphore = %d/%d", s.free, s.Total())
	}
	e.Spawn("user", func(p *Proc) {
		got := s.Acquire(p, 3)
		if got != 3 || s.free != 5 {
			t.Errorf("after acquire: got %d, free %d", got, s.free)
		}
		s.Release(3)
		if s.free != 8 {
			t.Errorf("after release: free %d", s.free)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSemaphoreFullWidthSerializes(t *testing.T) {
	// Two 8-core kernels on an 8-core pool must run back to back.
	e := NewEngine()
	s := NewSemaphore(e, "cores", 8)
	var done []Time
	for i := 0; i < 2; i++ {
		e.Spawn("kernel", func(p *Proc) {
			s.Use(p, 8, 100)
			done = append(done, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if done[0] != 100 || done[1] != 200 {
		t.Fatalf("done = %v, want [100 200]", done)
	}
}

func TestSemaphoreHalfWidthOverlaps(t *testing.T) {
	// Two 4-core kernels fit side by side.
	e := NewEngine()
	s := NewSemaphore(e, "cores", 8)
	var done []Time
	for i := 0; i < 2; i++ {
		e.Spawn("kernel", func(p *Proc) {
			s.Use(p, 4, 100)
			done = append(done, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if done[0] != 100 || done[1] != 100 {
		t.Fatalf("done = %v, want both at 100", done)
	}
}

func TestSemaphoreFIFONoOvertaking(t *testing.T) {
	// A queued 8-core request must not be overtaken by a later 1-core one.
	e := NewEngine()
	s := NewSemaphore(e, "cores", 8)
	var order []string
	e.Spawn("first", func(p *Proc) {
		s.Use(p, 6, 100)
		order = append(order, "first")
	})
	e.Spawn("big", func(p *Proc) {
		p.Sleep(1)
		s.Acquire(p, 8)
		order = append(order, "big")
		p.Sleep(10)
		s.Release(8)
	})
	e.Spawn("small", func(p *Proc) {
		p.Sleep(2)
		s.Use(p, 1, 1)
		order = append(order, "small")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"first", "big", "small"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSemaphoreClampsAndValidates(t *testing.T) {
	e := NewEngine()
	s := NewSemaphore(e, "cores", 4)
	e.Spawn("user", func(p *Proc) {
		if got := s.Acquire(p, 99); got != 4 {
			t.Errorf("oversized acquire got %d", got)
		}
		s.Release(4)
		if got := s.Acquire(p, 0); got != 1 {
			t.Errorf("zero acquire got %d", got)
		}
		s.Release(1)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("over-release did not panic")
		}
	}()
	s.Release(99)
}

func TestSemaphoreRejectsZeroUnits(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-unit semaphore accepted")
		}
	}()
	NewSemaphore(NewEngine(), "bad", 0)
}

// A one-unit semaphore models a unit that serves one request at a time, such
// as a PCIe link direction or a DMA engine: it serialises its users and grants
// them in arrival order.
func TestResourceSerializesUsers(t *testing.T) {
	e := NewEngine()
	s := NewSemaphore(e, "link", 1)
	var finish []Time
	for i := 0; i < 3; i++ {
		e.Spawn("user", func(p *Proc) {
			s.Use(p, 1, 10)
			finish = append(finish, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []Time{10, 20, 30}
	if len(finish) != len(want) {
		t.Fatalf("finish = %v, want %v", finish, want)
	}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
	if s.free != 1 {
		t.Fatalf("Free = %d after all users finished, want 1", s.free)
	}
}

func TestSemaphoreOneUnitFIFOOrder(t *testing.T) {
	e := NewEngine()
	s := NewSemaphore(e, "link", 1)
	var order []int
	for i := 0; i < 4; i++ {
		e.Spawn("user", func(p *Proc) {
			p.Sleep(Duration(i)) // arrive in index order
			s.Acquire(p, 1)
			order = append(order, i)
			p.Sleep(100)
			s.Release(1)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestSemaphoreOneUnitIdleBetweenUses(t *testing.T) {
	e := NewEngine()
	s := NewSemaphore(e, "link", 1)
	e.Spawn("user", func(p *Proc) {
		s.Use(p, 1, 5)
		if s.free != 1 {
			t.Error("semaphore held after release")
		}
		p.Sleep(100)
		s.Use(p, 1, 5)
		if p.Now() != 110 {
			t.Errorf("second use ended at %v, want 110", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestReleaseIdlePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Release of an idle one-unit semaphore did not panic")
		}
	}()
	NewSemaphore(NewEngine(), "link", 1).Release(1)
}

// contendedAllocs reports the allocations per call of use while three other
// processes call rival in a loop: use itself, so that every one of them
// parks on the wait list, or another load on the engine.
func contendedAllocs(t *testing.T, e *Engine, rival, use func(p *Proc)) float64 {
	t.Helper()
	for i := 0; i < 3; i++ {
		e.Spawn("rival", func(p *Proc) {
			for {
				rival(p)
			}
		})
	}
	var allocs float64
	e.Spawn("measured", func(p *Proc) {
		for i := 0; i < 100; i++ { // grow the wait list and the event heap first
			use(p)
		}
		allocs = testing.AllocsPerRun(1000, func() { use(p) })
		e.Stop()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	e.Shutdown()
	return allocs
}

func TestSemaphoreContendedUseZeroAlloc(t *testing.T) {
	e := NewEngine()
	s := NewSemaphore(e, "cores", 2)
	use := func(p *Proc) { s.Use(p, 2, 10) }
	if allocs := contendedAllocs(t, e, use, use); allocs != 0 {
		t.Fatalf("contended Semaphore.Use allocates %.2f times per call, want 0", allocs)
	}
}

func TestResourceContendedUseZeroAlloc(t *testing.T) {
	e := NewEngine()
	s := NewSemaphore(e, "link", 1)
	use := func(p *Proc) { s.Use(p, 1, 10) }
	if allocs := contendedAllocs(t, e, use, use); allocs != 0 {
		t.Fatalf("contended one-unit Semaphore.Use allocates %.2f times per call, want 0", allocs)
	}
}

// TestQueueContendedPushPopZeroAlloc: a warm queue's Push and a pop through
// TryPop and Proc.Poll allocate nothing, with rivals on the engine: a round
// trip through two queues, each consumed by a poll that parks until the
// other side's Push notifies it.
func TestQueueContendedPushPopZeroAlloc(t *testing.T) {
	e := NewEngine()
	req, resp := newQueuePoll(new(Queue[int]), 3), newQueuePoll(new(Queue[int]), 3)
	e.Spawn("server", func(p *Proc) {
		for {
			v := req.pop(p, enginePoll)
			p.Sleep(10)
			resp.q.Push(p, v)
		}
	})
	use := func(p *Proc) {
		req.q.Push(p, 1)
		resp.pop(p, enginePoll)
	}
	if allocs := contendedAllocs(t, e, func(p *Proc) { p.Sleep(7) }, use); allocs != 0 {
		t.Fatalf("Queue.Push and a poll's pop allocate %.2f times per round trip, want 0", allocs)
	}
}
