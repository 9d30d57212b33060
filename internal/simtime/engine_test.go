package simtime

import (
	"errors"
	"testing"
	"unsafe"
)

// run executes a single-process simulation and fails the test on error.
func run(t *testing.T, fn func(p *Proc)) *Engine {
	t.Helper()
	e := NewEngine()
	e.Spawn("main", fn)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return e
}

func TestSleepAdvancesClock(t *testing.T) {
	var at Time
	e := run(t, func(p *Proc) {
		p.Sleep(5 * Microsecond)
		p.Sleep(3 * Nanosecond)
		at = p.Now()
	})
	want := Time(5*Microsecond + 3*Nanosecond)
	if at != want || e.Now() != want {
		t.Fatalf("clock = %v, want %v", at, want)
	}
}

func TestZeroSleepDoesNotAdvanceClock(t *testing.T) {
	run(t, func(p *Proc) {
		p.Sleep(0)
		p.Sleep(0)
		if p.Now() != 0 {
			t.Errorf("clock = %v, want 0", p.Now())
		}
	})
}

func TestNegativeSleepClamped(t *testing.T) {
	run(t, func(p *Proc) {
		p.Sleep(-5)
		if p.Now() != 0 {
			t.Errorf("clock = %v, want 0", p.Now())
		}
	})
}

func TestTwoProcessesInterleaveDeterministically(t *testing.T) {
	var order []int
	e := NewEngine()
	e.Spawn("a", func(p *Proc) {
		p.Sleep(10)
		order = append(order, 1)
		p.Sleep(20) // wakes at 30
		order = append(order, 3)
	})
	e.Spawn("b", func(p *Proc) {
		p.Sleep(20)
		order = append(order, 2)
		p.Sleep(20) // wakes at 40
		order = append(order, 4)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{1, 2, 3, 4}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	// Processes sleeping until the same instant must wake in schedule order.
	var order []string
	e := NewEngine()
	for _, name := range []string{"p0", "p1", "p2", "p3"} {
		name := name
		e.Spawn(name, func(p *Proc) {
			p.Sleep(100)
			order = append(order, name)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"p0", "p1", "p2", "p3"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSpawnFromProcess(t *testing.T) {
	var childRan bool
	var childTime Time
	run(t, func(p *Proc) {
		p.Sleep(7)
		p.Engine().Spawn("child", func(c *Proc) {
			childRan = true
			childTime = c.Now()
		})
		p.Sleep(1) // let the child run
	})
	if !childRan {
		t.Fatal("child never ran")
	}
	if childTime != 7 {
		t.Fatalf("child started at %v, want 7", childTime)
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := NewEngine()
	ev := NewEvent(e)
	e.Spawn("stuck", func(p *Proc) {
		ev.Wait(p) // nobody fires
	})
	err := e.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	e.Shutdown()
}

func TestStopReturnsEarly(t *testing.T) {
	e := NewEngine()
	forever := NewEvent(e)
	e.Spawn("poller", func(p *Proc) {
		for {
			p.Sleep(10)
		}
	})
	e.Spawn("main", func(p *Proc) {
		p.Sleep(105)
		e.Stop()
		forever.Wait(p)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if e.Now() != 105 {
		t.Fatalf("stopped at %v, want 105", e.Now())
	}
	e.Shutdown()
}

func TestEventLimit(t *testing.T) {
	e := NewEngine()
	e.MaxEvents = 100
	e.Spawn("spinner", func(p *Proc) {
		for {
			p.Sleep(1)
		}
	})
	if err := e.Run(); !errors.Is(err, ErrEventLimit) {
		t.Fatalf("err = %v, want ErrEventLimit", err)
	}
	e.Shutdown()
}

func TestProcessPanicPropagates(t *testing.T) {
	e := NewEngine()
	e.Spawn("bad", func(p *Proc) {
		p.Sleep(1)
		panic("boom")
	})
	err := e.Run()
	if err == nil {
		t.Fatal("Run returned nil, want panic error")
	}
}

func TestEventFireReleasesAllWaiters(t *testing.T) {
	e := NewEngine()
	ev := NewEvent(e)
	woken := 0
	for i := 0; i < 5; i++ {
		e.Spawn("w", func(p *Proc) {
			ev.Wait(p)
			woken++
			if p.Now() != 42 {
				t.Errorf("woke at %v, want 42", p.Now())
			}
		})
	}
	e.Spawn("firer", func(p *Proc) {
		p.Sleep(42)
		ev.Fire()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if woken != 5 {
		t.Fatalf("woken = %d, want 5", woken)
	}
}

func TestEventWaitAfterFireReturnsImmediately(t *testing.T) {
	e := NewEngine()
	ev := NewEvent(e)
	e.Spawn("main", func(p *Proc) {
		ev.Fire()
		before := p.Now()
		ev.Wait(p)
		if p.Now() != before {
			t.Error("Wait on fired event advanced time")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestEventsCounter(t *testing.T) {
	e := run(t, func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(1)
		}
	})
	// 1 spawn wake + 10 sleep wakes.
	if e.Events() != 11 {
		t.Fatalf("events = %d, want 11", e.Events())
	}
}

// An event is a wake's time, its seq and the process it wakes: 24 B, so the
// engine's heap moves three words per sift step.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 24 {
		t.Errorf("event is %d B, want 24", got)
	}
}
