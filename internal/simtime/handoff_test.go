package simtime

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// pingPong runs n rounds of a host that posts a request and waits for its
// reply and a VE that serves it: each round, each side parks once for the
// other's wake.
func pingPong(e *Engine, n int) {
	req, resp := make([]*Event, n), make([]*Event, n)
	for i := range req {
		req[i], resp[i] = NewEvent(e), NewEvent(e)
	}
	e.Spawn("host", func(p *Proc) {
		for i := range n {
			p.Sleep(100)
			req[i].Fire()
			resp[i].Wait(p)
		}
	})
	e.Spawn("ve", func(p *Proc) {
		for i := range n {
			req[i].Wait(p)
			p.Sleep(50)
			resp[i].Fire()
		}
	})
}

// A host/VE ping-pong of N rounds costs 2N coroutine switches, not 4N: the
// host, parking for the reply, resumes the VE itself, and the VE, parking for
// the next request, yields straight back to the host, which takes its own
// wake in place. Every park that does not take its wake in place still
// counts as a yield, as many as when each went through Run.
func TestHandoffPingPongSwitches(t *testing.T) {
	const n = 1000
	e := NewEngine()
	pingPong(e, n)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Run resumes the host's spawn wake, whose first sleep resumes the VE's
	// spawn wake; then each round's wait for the reply resumes the VE.
	switches := 2 * Resumes(e)
	if want := uint64(2*n + 4); switches != want {
		t.Errorf("%d rounds took %d switches, want %d", n, switches, want)
	}
	// Each round parks the host for the reply and the VE for the next
	// request (after the last reply it finishes instead), and the host's
	// first sleep parked for the VE's spawn wake.
	if want := uint64(2*n + 1); e.Yields() != want {
		t.Errorf("Yields = %d, want %d", e.Yields(), want)
	}
	if want := Time(150 * n); e.Now() != want {
		t.Errorf("Now = %v, want %v", e.Now(), want)
	}
}

// A chain of direct resumes unwinds to the process whose wake is next: a
// resumes b, b resumes c, and c's park finds a's wake — a is on the resume
// stack, so c yields to b, b to a, and a takes its wake in place. Delivery is
// Run's order throughout.
func TestHandoffChainUnwinds(t *testing.T) {
	e := NewEngine()
	var log wakeLog
	var a, b, c *Proc
	stacked := false
	body := func(gap Duration) func(p *Proc) {
		return func(p *Proc) {
			for range 3 {
				p.Sleep(gap)
				log.rec(p, "timer")
			}
		}
	}
	a = e.Spawn("a", body(30))
	b = e.Spawn("b", body(30))
	c = e.Spawn("c", func(p *Proc) {
		stacked = a.active && b.active && p.active
		body(30)(p)
	})
	e.Spawn("d", func(p *Proc) {
		p.Sleep(15)
		log.rec(p, "timer")
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !stacked {
		t.Error("c did not run with a and b on the resume stack")
	}
	want := []string{
		"15 d timer",
		"30 a timer", "30 b timer", "30 c timer",
		"60 a timer", "60 b timer", "60 c timer",
		"90 a timer", "90 b timer", "90 c timer",
	}
	if !reflect.DeepEqual([]string(log), want) {
		t.Fatalf("wakes = %q, want %q", []string(log), want)
	}
	if a.active || b.active || c.active {
		t.Errorf("active after Run: a %v, b %v, c %v", a.active, b.active, c.active)
	}
}

// Stop, a panic, the event budget and runtime.Goexit inside a process that a
// parking process resumed directly end the run as they do in one that Run
// resumed, and Shutdown unwinds what is left afterwards.
func TestHandoffEndsRunAsBefore(t *testing.T) {
	for _, tc := range []struct {
		name   string
		trip   func(e *Engine, p *Proc) // what the directly resumed process does
		arm    func(e *Engine)
		err    string // Run's error; "goexit": Run does not return
		events uint64
		now    Time
	}{
		// Three spawn wakes, the client's at 20 and the server's it fires.
		{name: "stop", trip: func(e *Engine, _ *Proc) { e.Stop() }, events: 5, now: 20},
		{name: "panic", trip: func(*Engine, *Proc) { panic("boom") }, err: `simtime: process "server" panicked: boom`, events: 5, now: 20},
		// The server's wake at 21 trips the budget: counted, not delivered.
		{name: "budget", trip: func(_ *Engine, p *Proc) { p.Sleep(1) }, arm: func(e *Engine) { e.MaxEvents = 5 },
			err: "simtime: event limit exceeded (5 events)", events: 6, now: 20},
		{name: "goexit", trip: func(*Engine, *Proc) { runtime.Goexit() }, err: "goexit", events: 5, now: 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := settledGoroutines()
			e := NewEngine()
			if tc.arm != nil {
				tc.arm(e)
			}
			var unwound []string
			var client *Proc
			direct := false
			req := NewEvent(e)
			client = e.Spawn("client", func(p *Proc) {
				defer func() { unwound = append(unwound, "client") }()
				p.Sleep(20)
				req.Fire()
				p.Sleep(Second) // parks for good: resumes the server itself
			})
			e.Spawn("server", func(p *Proc) {
				defer func() { unwound = append(unwound, "server") }()
				req.Wait(p)
				direct = client.active
				tc.trip(e, p)
				p.Sleep(Second)
			})
			e.Spawn("bystander", func(p *Proc) {
				defer func() { unwound = append(unwound, "bystander") }()
				p.Sleep(Second)
			})
			var err error
			returned := false
			done := make(chan struct{})
			go func() {
				defer close(done)
				defer e.Shutdown()
				err = e.Run()
				returned = true
			}()
			<-done
			if !direct {
				t.Fatal("the server was not resumed by the parking client")
			}
			switch {
			case tc.err == "goexit":
				if returned {
					t.Error("Run returned after a process called Goexit")
				}
				// Goexit unwinds every process on the resume stack, then Run's
				// caller, whose deferred Shutdown kills the rest.
				if want := []string{"server", "client", "bystander"}; !reflect.DeepEqual(unwound, want) {
					t.Errorf("unwound = %q, want %q", unwound, want)
				}
			case tc.err == "" && err != nil, tc.err != "" && (err == nil || err.Error() != tc.err):
				t.Errorf("Run = %v, want %q", err, tc.err)
			default:
				want := []string{"client", "server", "bystander"} // Shutdown's spawn order
				if tc.name == "panic" {
					want = []string{"server", "client", "bystander"}
				}
				if !reflect.DeepEqual(unwound, want) {
					t.Errorf("unwound = %q, want %q", unwound, want)
				}
			}
			if e.Events() != tc.events || e.Now() != tc.now {
				t.Errorf("Events, Now = %d, %v, want %d, %v", e.Events(), e.Now(), tc.events, tc.now)
			}
			if e.first != nil || e.running != nil {
				t.Errorf("after Shutdown: first=%v running=%v, want none", e.first, e.running)
			}
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
				runtime.Gosched()
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Errorf("NumGoroutine = %d, want the pre-engine %d", after, before)
			}
		})
	}
}

// The budget cuts a ping-pong at the same event with the same error, however
// far it runs: a handoff never delivers the event past it.
func TestHandoffHonoursMaxEvents(t *testing.T) {
	for _, limit := range []uint64{1, 2, 3, 10, 101} {
		t.Run(fmt.Sprint(limit), func(t *testing.T) {
			e := NewEngine()
			e.MaxEvents = limit
			pingPong(e, 100)
			err := e.Run()
			e.Shutdown()
			if !errors.Is(err, ErrEventLimit) || e.Events() != limit+1 {
				t.Errorf("Run = %v after %d events, want ErrEventLimit after %d", err, e.Events(), limit+1)
			}
		})
	}
}
