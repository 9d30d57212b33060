package simtime

import "testing"

func TestSemaphoreBasic(t *testing.T) {
	e := NewEngine()
	s := NewSemaphore(e, "cores", 8)
	if s.Total() != 8 || s.Free() != 8 {
		t.Fatalf("fresh semaphore = %d/%d", s.Free(), s.Total())
	}
	e.Spawn("user", func(p *Proc) {
		got := s.Acquire(p, 3)
		if got != 3 || s.Free() != 5 {
			t.Errorf("after acquire: got %d, free %d", got, s.Free())
		}
		s.Release(3)
		if s.Free() != 8 {
			t.Errorf("after release: free %d", s.Free())
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

func TestSemaphoreContendedUseZeroAlloc(t *testing.T) {
	e := NewEngine()
	s := NewSemaphore(e, "cores", 2)
	if allocs := contendedAllocs(t, e, func(p *Proc) { s.Use(p, 2, 10) }); allocs != 0 {
		t.Fatalf("contended Semaphore.Use allocates %.2f times per call, want 0", allocs)
	}
}
