package simtime

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// wakeLog records one line per wake, "<now ps> <proc> <reason>", written by
// the woken process itself. The reason is what the primitive reports: a
// Sleep is always the timer, a Pop/Wait/Acquire always the event, and the
// timeout variants say which of the two won.
type wakeLog []string

func (l *wakeLog) rec(p *Proc, reason string) {
	*l = append(*l, fmt.Sprintf("%d %s %s", int64(p.Now()), p.Name(), reason))
}

func won(event bool) string {
	if event {
		return "event"
	}
	return "timer"
}

// goldenScenario mixes every blocking primitive, contended and not, with
// same-timestamp ties, a timer that wins and one that loses for each timeout
// variant, stale wakes left behind by the losers, a spawn from inside a
// process, and a poller — polling through poll — whose ticks fall on other
// processes' instants, ended once by its condition and once by until.
func goldenScenario(e *Engine, log *wakeLog, poll pollFn) {
	q := NewQueue[int](e, "q")
	ev1, ev2 := NewEvent(e), NewEvent(e)
	link := NewResource(e, "link")
	cores := NewSemaphore(e, "cores", 3)

	// A poller ticking beside everyone else's longer sleeps: most of its
	// wakes are its own next event.
	e.Spawn("tick", func(p *Proc) {
		for i := 0; i < 12; i++ {
			p.Sleep(3)
			log.rec(p, "timer")
		}
	})
	e.Spawn("producer", func(p *Proc) {
		p.Sleep(5)
		log.rec(p, "timer")
		q.Push(1)
		p.Yield()
		log.rec(p, "timer")
		q.Push(2)
		q.Push(3)
		p.Sleep(10) // t=15
		log.rec(p, "timer")
		q.Push(4)
		p.Sleep(15) // t=30, same instant as tick's 10th tick and ev2
		log.rec(p, "timer")
		q.Push(5)
	})
	e.Spawn("consumer", func(p *Proc) {
		v := q.Pop(p)
		log.rec(p, fmt.Sprintf("event pop=%d", v))
		v = q.Pop(p) // already queued at the same instant: no park
		v, ok := q.PopTimeout(p, 20)
		log.rec(p, fmt.Sprintf("%s pop=%d", won(ok), v))
		v, ok = q.PopTimeout(p, 4) // timer wins at t=9; item 4 comes at 15
		log.rec(p, fmt.Sprintf("%s pop=%d", won(ok), v))
		v, ok = q.PopTimeout(p, 100) // event wins at 15, timer stays behind stale
		log.rec(p, fmt.Sprintf("%s pop=%d", won(ok), v))
		p.Sleep(1)
		log.rec(p, "timer")
		v = q.Pop(p) // t=30
		log.rec(p, fmt.Sprintf("event pop=%d", v))
	})
	e.Spawn("waiter", func(p *Proc) {
		log.rec(p, won(ev1.WaitTimeout(p, 7))) // timer wins at 7; ev1 fires at 12
		log.rec(p, won(ev1.WaitTimeout(p, 100)))
		ev1.Wait(p) // fired: no park
		p.Sleep(2)  // the stale t=107 timer must not cut this short
		log.rec(p, "timer")
		ev2.Wait(p)
		log.rec(p, "event")
	})
	e.Spawn("waiter2", func(p *Proc) {
		ev1.Wait(p)
		log.rec(p, "event")
		log.rec(p, won(ev2.WaitTimeout(p, 18))) // ev2 fires at t=30 too, but the timer was scheduled first
	})
	e.Spawn("firer", func(p *Proc) {
		p.Sleep(12) // same instant as tick's 4th tick
		log.rec(p, "timer")
		ev1.Fire()
		p.Spawn("kid", func(c *Proc) {
			log.rec(c, "event")
			c.Sleep(18) // t=30
			log.rec(c, "timer")
			ev2.Fire()
		})
		p.Yield()
		log.rec(p, "timer")
	})
	for i := 0; i < 3; i++ {
		e.Spawn(fmt.Sprintf("link%d", i), func(p *Proc) {
			link.Acquire(p)
			log.rec(p, "acquired")
			p.Sleep(4)
			log.rec(p, "timer")
			link.Release(p)
		})
	}
	for i := 0; i < 3; i++ {
		n := i + 1
		e.Spawn(fmt.Sprintf("core%d", i), func(p *Proc) {
			p.Sleep(1)
			log.rec(p, "timer")
			got := cores.Acquire(p, n) // 1 and 2 fit at once, 3 waits for both
			log.rec(p, fmt.Sprintf("acquired %d", got))
			p.Sleep(Duration(6 - n))
			log.rec(p, "timer")
			cores.Release(got)
		})
	}
	e.Spawn("watch", func(p *Proc) {
		poll(p, &cond{hit: ev2.Fired, gap: 4}, 0) // ev2 fires at 30, between the ticks at 28 and 32
		log.rec(p, "poll")
		poll(p, &cond{hit: never, gap: 5}, p.Now().Add(12)) // ticks at 37 and 42, until at 44
		log.rec(p, "poll")
	})
}

// goldenWakes is goldenScenario's log as the goroutine-and-channels engine of
// PR 13 (c00e21a) produced it, with its Events() and MaxQueueLen(); the
// poller's lines and events are the tick-by-tick loop's on PR 21's engine.
var goldenWakes = []string{
	"0 link0 acquired",
	"1 core0 timer",
	"1 core0 acquired 1",
	"1 core1 timer",
	"1 core1 acquired 2",
	"1 core2 timer",
	"3 tick timer",
	"4 link0 timer",
	"4 link1 acquired",
	"5 producer timer",
	"5 core1 timer",
	"5 consumer event pop=1",
	"5 producer timer",
	"5 consumer event pop=3",
	"6 core0 timer",
	"6 tick timer",
	"6 core2 acquired 3",
	"7 waiter timer",
	"8 link1 timer",
	"8 link2 acquired",
	"9 consumer timer pop=0",
	"9 tick timer",
	"9 core2 timer",
	"12 firer timer",
	"12 link2 timer",
	"12 tick timer",
	"12 waiter2 event",
	"12 waiter event",
	"12 kid event",
	"12 firer timer",
	"14 waiter timer",
	"15 producer timer",
	"15 tick timer",
	"15 consumer event pop=4",
	"16 consumer timer",
	"18 tick timer",
	"21 tick timer",
	"24 tick timer",
	"27 tick timer",
	"30 waiter2 timer",
	"30 kid timer",
	"30 producer timer",
	"30 tick timer",
	"30 waiter event",
	"30 consumer event pop=5",
	"32 watch poll",
	"33 tick timer",
	"36 tick timer",
	"47 watch poll",
}

const (
	goldenEvents   = 68 // 56 without the poller: its spawn wake and 11 ticks
	goldenMaxQueue = 13
)

func TestGoldenDeliveryOrder(t *testing.T) {
	for _, poll := range []struct {
		name string
		fn   pollFn
	}{{"Poll", enginePoll}, {"loop", loopPoll}} {
		t.Run(poll.name, func(t *testing.T) { testGoldenDeliveryOrder(t, poll.fn) })
	}
}

func testGoldenDeliveryOrder(t *testing.T, poll pollFn) {
	e := NewEngine()
	var log wakeLog
	goldenScenario(e, &log, poll)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if testing.Verbose() {
		t.Logf("events=%d maxq=%d\n%s", e.Events(), e.MaxQueueLen(), "\t\t\""+strings.Join(log, "\",\n\t\t\"")+"\",")
	}
	for i := 0; i < len(log) || i < len(goldenWakes); i++ {
		var got, want string
		if i < len(log) {
			got = log[i]
		}
		if i < len(goldenWakes) {
			want = goldenWakes[i]
		}
		if got != want {
			t.Fatalf("wake %d = %q, want %q (of %d, want %d)", i, got, want, len(log), len(goldenWakes))
		}
	}
	if e.Events() != goldenEvents || e.MaxQueueLen() != goldenMaxQueue {
		t.Fatalf("Events, MaxQueueLen = %d, %d, want %d, %d", e.Events(), e.MaxQueueLen(), goldenEvents, goldenMaxQueue)
	}
}

// pollBesideSleeper is the ring.Host.wait shape: a 200 ns poller, 24 of whose
// 25 ticks are the engine's next event, beside a 5 us sleeper whose every
// wake falls on the instant of a tick and was scheduled before it. With
// viaPoll the poller is one Proc.Poll that never hits, so its ticks are the
// engine's and it logs none.
func pollBesideSleeper(e *Engine, log *wakeLog, viaPoll bool) {
	e.Spawn("poll", func(p *Proc) {
		if viaPoll {
			p.Poll(&cond{hit: never, gap: 200 * Nanosecond}, 0)
		}
		for {
			p.Sleep(200 * Nanosecond)
			if log != nil {
				log.rec(p, "timer")
			}
		}
	})
	e.Spawn("sleep", func(p *Proc) {
		for {
			p.Sleep(5 * Microsecond)
			if log != nil {
				log.rec(p, "timer")
			}
		}
	})
}

// The limits cut a run short at the same event, with the same error and the
// same Events(), whether the event that trips them would have been taken in
// place by the poller, answered by the engine for a Proc.Poll, or delivered
// by Run. Expected values are the PR 13 engine's.
func TestSelfWakeHonoursLimits(t *testing.T) {
	for _, tc := range []struct {
		name       string
		arm        func(e *Engine)
		err        error
		events     uint64
		now        Time
		lastWake   string
		totalWakes int
	}{
		// The deadline falls between two poller ticks: the tick at 10.2 us
		// must be refused although it is the poller's own next event.
		{"deadline", func(e *Engine) { e.Deadline = Time(10100 * Nanosecond) }, ErrDeadline, 54, Time(10 * Microsecond), "10000000 poll timer", 52},
		// Both wakes at the deadline itself are still delivered.
		{"deadline-on-tick", func(e *Engine) { e.Deadline = Time(10 * Microsecond) }, ErrDeadline, 54, Time(10 * Microsecond), "10000000 poll timer", 52},
		// The budget runs out on one of the poller's own ticks.
		{"budget", func(e *Engine) { e.MaxEvents = 20 }, ErrEventLimit, 21, Time(3600 * Nanosecond), "3600000 poll timer", 18},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var loopLog wakeLog
			for _, viaPoll := range []bool{false, true} {
				t.Run(fmt.Sprintf("viaPoll=%v", viaPoll), func(t *testing.T) {
					e := NewEngine()
					var log wakeLog
					pollBesideSleeper(e, &log, viaPoll)
					tc.arm(e)
					err := e.Run()
					e.Shutdown()
					if !errors.Is(err, tc.err) {
						t.Fatalf("err = %v, want %v", err, tc.err)
					}
					if e.Events() != tc.events || e.Now() != tc.now {
						t.Errorf("Events, Now = %d, %d, want %d, %d", e.Events(), int64(e.Now()), tc.events, int64(tc.now))
					}
					if viaPoll {
						// What is left of the loop's log without the poller's lines.
						var want wakeLog
						for _, l := range loopLog {
							if !strings.Contains(l, " poll ") {
								want = append(want, l)
							}
						}
						if !reflect.DeepEqual(log, want) {
							t.Errorf("wakes = %q, want the sleeper's %q", []string(log), []string(want))
						}
						return
					}
					loopLog = log
					if len(log) != tc.totalWakes || log[len(log)-1] != tc.lastWake {
						t.Errorf("%d wakes ending in %q, want %d ending in %q", len(log), log[len(log)-1], tc.totalWakes, tc.lastWake)
					}
				})
			}
		})
	}
}

// Stop takes effect at the stopping process's very next park, even when that
// park's wake is the next event on the heap and its own.
func TestSelfWakeHonoursStop(t *testing.T) {
	e := NewEngine()
	ticks := 0
	e.Spawn("poll", func(p *Proc) {
		for {
			p.Sleep(10)
			ticks++
			if ticks == 7 {
				e.Stop()
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	e.Shutdown()
	// Spawn wake + 7 ticks; the 8th tick stays undelivered on the heap.
	if ticks != 7 || e.Events() != 8 || e.Now() != 70 || e.QueueLen() != 1 {
		t.Fatalf("ticks, Events, Now, QueueLen = %d, %d, %v, %d, want 7, 8, 70ps, 1", ticks, e.Events(), e.Now(), e.QueueLen())
	}
}

// A parking process never takes its own wake ahead of another process's
// earlier event, nor ahead of one at the same instant that was scheduled
// first; stale wakes in front of it are discarded, not delivered.
func TestSelfWakeNeverOvertakes(t *testing.T) {
	e := NewEngine()
	ev := NewEvent(e)
	var log wakeLog
	e.Spawn("a", func(p *Proc) {
		// The timer at t=50 goes stale at t=10 and then sits in front of
		// a's own t=60 wake.
		log.rec(p, won(ev.WaitTimeout(p, 50)))
		p.Sleep(50)
		log.rec(p, "timer")
		p.Sleep(10) // t=70: b's wake at 70 was scheduled earlier
		log.rec(p, "timer")
		p.Sleep(5) // t=75: b's wake at 72 is earlier
		log.rec(p, "timer")
	})
	e.Spawn("b", func(p *Proc) {
		p.Sleep(10)
		log.rec(p, "timer")
		ev.Fire()
		p.Sleep(60) // t=70
		log.rec(p, "timer")
		p.Sleep(2) // t=72
		log.rec(p, "timer")
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{
		"10 b timer", "10 a event", "60 a timer",
		"70 b timer", "70 a timer", "72 b timer", "75 a timer",
	}
	if !reflect.DeepEqual([]string(log), want) {
		t.Fatalf("wakes = %q, want %q", []string(log), want)
	}
	// 2 spawn wakes + 7 logged ones; the stale timer is not an event.
	if e.Events() != 9 {
		t.Fatalf("Events = %d, want 9", e.Events())
	}
}

// Shutdown unwinds a process parked in each primitive through its deferred
// calls, never runs the body of one that had not started, and leaves no
// coroutine behind.
func TestShutdownUnwindsEveryPrimitive(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	q := NewQueue[int](e, "q")
	never := NewEvent(e)
	link := NewResource(e, "link")
	cores := NewSemaphore(e, "cores", 1)
	var unwound []string
	parkIn := func(name string, block func(p *Proc)) {
		e.Spawn(name, func(p *Proc) {
			defer func() { unwound = append(unwound, name) }()
			block(p)
			t.Errorf("%s: returned from a park nothing wakes", name)
		})
	}
	e.Spawn("holder", func(p *Proc) {
		defer func() { unwound = append(unwound, "holder") }()
		link.Acquire(p)
		cores.Acquire(p, 1)
		never.Wait(p)
	})
	parkIn("sleep", func(p *Proc) { p.Sleep(Second) })
	var polling *Proc
	parkIn("poll", func(p *Proc) { polling = p; p.Poll(&cond{hit: never.Fired, gap: Second}, 0) })
	parkIn("pop", func(p *Proc) { q.Pop(p) })
	parkIn("pop-timeout", func(p *Proc) { q.PopTimeout(p, Second) })
	parkIn("wait", func(p *Proc) { never.Wait(p) })
	parkIn("wait-timeout", func(p *Proc) { never.WaitTimeout(p, Second) })
	parkIn("resource", func(p *Proc) { link.Acquire(p) })
	parkIn("semaphore", func(p *Proc) { cores.Acquire(p, 1) })
	parkIn("defer-parks", func(p *Proc) {
		defer p.Sleep(1) // a park while being killed is killed too
		never.Wait(p)
	})
	e.Spawn("stopper", func(p *Proc) {
		p.Sleep(1)
		p.Spawn("unstarted", func(*Proc) { t.Error("unstarted: body ran") })
		e.Stop()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if polling.blockedOn != "poll" {
		t.Errorf("a process in Poll is labelled %q, want poll", polling.blockedOn)
	}
	events, now := e.Events(), e.Now()
	e.Shutdown()
	want := []string{"holder", "sleep", "poll", "pop", "pop-timeout", "wait", "wait-timeout", "resource", "semaphore", "defer-parks"}
	if !reflect.DeepEqual(unwound, want) {
		t.Errorf("unwound = %q, want %q (spawn order)", unwound, want)
	}
	if e.Events() != events || e.Now() != now {
		t.Errorf("Shutdown advanced the simulation: Events %d -> %d, Now %v -> %v", events, e.Events(), now, e.Now())
	}
	if e.first != nil || e.last != nil {
		t.Errorf("live list after Shutdown: first=%v last=%v, want empty", e.first, e.last)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("NumGoroutine = %d after Shutdown, want the pre-engine %d", after, before)
	}
}

// A park in a deferred call of a process being killed is killed too: it must
// not take its own wake in place and advance the simulation, also when Run
// ended without Stop.
func TestShutdownAfterDeadlockDoesNotAdvance(t *testing.T) {
	e := NewEngine()
	never := NewEvent(e)
	slept := false
	e.Spawn("stuck", func(p *Proc) {
		defer func() {
			defer func() { slept = recover() == nil }()
			p.Sleep(1)
		}()
		never.Wait(p)
	})
	if err := e.Run(); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	e.Shutdown()
	if slept || e.Events() != 1 || e.Now() != 0 {
		t.Fatalf("Shutdown let a killed process sleep: slept=%v Events=%d Now=%v", slept, e.Events(), e.Now())
	}
}

func TestPanicInProcessIsRunsError(t *testing.T) {
	e := NewEngine()
	var unwound bool
	e.Spawn("bystander", func(p *Proc) { p.Sleep(Second) })
	e.Spawn("bad", func(p *Proc) {
		defer func() { unwound = true }()
		p.Sleep(1) // taken in place or not, the panic must surface the same way
		p.Sleep(1)
		panic("boom")
	})
	err := e.Run()
	if err == nil || err.Error() != `simtime: process "bad" panicked: boom` {
		t.Fatalf("err = %v, want the panic of process bad", err)
	}
	if !unwound {
		t.Error("panicking process did not run its deferred calls")
	}
	if again := e.Run(); again == nil || again.Error() != err.Error() {
		t.Errorf("second Run = %v, want the same error", again)
	}
	e.Shutdown()
}

// runtime.Goexit in a process (t.Fatal, t.Skip) unwinds the process and then
// the goroutine that called Run: Run does not return, its caller's deferred
// calls run, and the engine can still be shut down from there.
func TestGoexitInProcessEndsRunsCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	var procUnwound, runReturned, bystanderUnwound bool
	e.Spawn("bystander", func(p *Proc) {
		defer func() { bystanderUnwound = true }()
		p.Sleep(Second)
	})
	e.Spawn("quitter", func(p *Proc) {
		defer func() { procUnwound = true }()
		p.Sleep(1)
		runtime.Goexit()
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer e.Shutdown()
		_ = e.Run()
		runReturned = true
	}()
	<-done
	// The caller's goroutine still has to exit after close(done); wait for it,
	// so that no goroutine of this test is left for the next one to count.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("NumGoroutine = %d after Run's caller exited, want the pre-engine %d", after, before)
	}
	if !procUnwound || !bystanderUnwound {
		t.Errorf("deferred calls: quitter %v, bystander (via the caller's deferred Shutdown) %v, want both", procUnwound, bystanderUnwound)
	}
	if runReturned {
		t.Error("Run returned after a process called Goexit")
	}
	if e.first != nil || e.last != nil {
		t.Errorf("live list after the caller's Shutdown: first=%v last=%v, want empty", e.first, e.last)
	}
}

// Finished processes leave the engine: a run that keeps spawning short-lived
// ones (veo's one process per async transfer) holds on to none of them.
func TestFinishedProcsLeaveLiveSet(t *testing.T) {
	e := NewEngine()
	const spawns = finishedSpawns
	e.Spawn("bystander", func(p *Proc) { p.Sleep(Second) })
	e.Spawn("spawner", func(p *Proc) {
		for i := 0; i < spawns; i++ {
			p.Spawn("short", func(c *Proc) { c.Sleep(1) })
			p.Sleep(2)
		}
		listed := 0
		for q := e.first; q != nil; q = q.next {
			listed++
		}
		if listed != 2 {
			t.Errorf("after %d short-lived spawns the live list holds %d procs, want the 2 long-lived ones", spawns, listed)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if e.first != nil || e.last != nil {
		t.Errorf("live list after Run: first=%v last=%v, want empty", e.first, e.last)
	}
}

// A finished process holds on to nothing its body captured, however it ended:
// callers keep a *Proc (and, through it, the engine) long after Run — one per
// round in bench/perf — and iter.Pull's functions would otherwise keep every
// body and its buffers reachable with it.
func TestFinishedProcLetsGoOfItsBody(t *testing.T) {
	e := NewEngine()
	freed := make(chan string, 2)
	spawn := func(name string, rest func(p *Proc)) *Proc {
		buf := new([1 << 16]byte)
		runtime.SetFinalizer(buf, func(*[1 << 16]byte) { freed <- name })
		return e.Spawn(name, func(p *Proc) {
			buf[0]++
			rest(p)
		})
	}
	procs := []*Proc{
		spawn("returns", func(p *Proc) { p.Sleep(1); e.Stop() }),
		spawn("killed", func(p *Proc) { p.Sleep(Second) }),
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	e.Shutdown()
	got := map[string]bool{}
	for tries := 0; len(got) < len(procs) && tries < 200; tries++ {
		runtime.GC()
		select {
		case name := <-freed:
			got[name] = true
		case <-time.After(10 * time.Millisecond):
		}
	}
	for _, p := range procs {
		if !got[p.Name()] {
			t.Errorf("process %q finished, yet what its body captured is still reachable from the *Proc", p.Name())
		}
		if _, more := p.resume(); more {
			t.Errorf("process %q: resume after finish reports more to run", p.Name())
		}
	}
}

// The deadlock report lists exactly the parked processes, sorted, whatever
// order they were spawned in and whoever finished in between.
func TestDeadlockReportAfterProcsFinish(t *testing.T) {
	e := NewEngine()
	ev := NewEvent(e)
	q := NewQueue[int](e, "inbox")
	e.Spawn("zed", func(p *Proc) { ev.Wait(p) })
	e.Spawn("gone", func(p *Proc) { p.Sleep(1) })
	e.Spawn("amy", func(p *Proc) { p.Sleep(5); q.Pop(p) })
	err := e.Run()
	e.Shutdown()
	const want = "simtime: deadlock: no pending events but processes are parked: at t=5ps: [amy (queue inbox) zed (event)]"
	if !errors.Is(err, ErrDeadlock) || err.Error() != want {
		t.Fatalf("err = %v\nwant  %s", err, want)
	}
}
