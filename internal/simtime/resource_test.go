package simtime

import "testing"

func TestResourceSerializesUsers(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "link")
	var finish []Time
	for i := 0; i < 3; i++ {
		e.Spawn("user", func(p *Proc) {
			r.Use(p, 10)
			finish = append(finish, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []Time{10, 20, 30}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
	if r.BusyTime() != 30 {
		t.Fatalf("BusyTime = %v, want 30", r.BusyTime())
	}
	if r.Acquisitions() != 3 {
		t.Fatalf("Acquisitions = %d, want 3", r.Acquisitions())
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "r")
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		e.Spawn("user", func(p *Proc) {
			p.Sleep(Duration(i)) // arrive in index order
			r.Acquire(p)
			order = append(order, i)
			p.Sleep(100)
			r.Release(p)
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

func TestResourceIdleBetweenUses(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "r")
	e.Spawn("user", func(p *Proc) {
		r.Use(p, 5)
		if r.Busy() {
			t.Error("resource busy after release")
		}
		p.Sleep(100)
		r.Use(p, 5)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if r.BusyTime() != 10 {
		t.Fatalf("BusyTime = %v, want 10", r.BusyTime())
	}
}

func TestReleaseIdlePanics(t *testing.T) {
	e := NewEngine()
	e.Spawn("bad", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Release of idle resource did not panic")
			}
		}()
		r := NewResource(e, "r")
		r.Release(p)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// contendedAllocs reports the allocations per call of use while three other
// processes run the same call in a loop, so that every one of them parks on
// the wait list.
func contendedAllocs(t *testing.T, e *Engine, use func(p *Proc)) float64 {
	t.Helper()
	for i := 0; i < 3; i++ {
		e.Spawn("rival", func(p *Proc) {
			for {
				use(p)
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

func TestResourceContendedUseZeroAlloc(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "link")
	if allocs := contendedAllocs(t, e, func(p *Proc) { r.Use(p, 10) }); allocs != 0 {
		t.Fatalf("contended Resource.Use allocates %.2f times per call, want 0", allocs)
	}
}
