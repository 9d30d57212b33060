package simtime

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// wakeLog records one line per wake, "<now ps> <proc> <reason>", written by
// the woken process itself. The reason is what woke it: a Sleep is always the
// timer, a Wait/Acquire always the event, a Poll the poll.
type wakeLog []string

func (l *wakeLog) rec(p *Proc, reason string) {
	*l = append(*l, fmt.Sprintf("%d %s %s", int64(p.Now()), p.Name(), reason))
}

// goldenScenario mixes every blocking primitive, contended and not, with
// same-timestamp ties, a spawn from inside a process, and a poller — polling
// through poll — whose ticks fall on other processes' instants, ended once by
// its condition and once by until.
func goldenScenario(e *Engine, log *wakeLog, poll pollFn) {
	q := new(Queue[int])
	qp := newQueuePoll(q, 1) // ticks on every instant the producer pushes at
	ev1, ev2 := NewEvent(e), NewEvent(e)
	link := NewSemaphore(e, "link", 1)
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
		q.Push(p, 1)
		p.Sleep(0)
		log.rec(p, "timer")
		q.Push(p, 2)
		q.Push(p, 3)
		p.Sleep(10) // t=15
		log.rec(p, "timer")
		q.Push(p, 4)
		p.Sleep(15) // t=30, same instant as tick's 10th tick and ev2
		log.rec(p, "timer")
		q.Push(p, 5)
	})
	e.Spawn("consumer", func(p *Proc) {
		v := qp.pop(p, poll) // the poll wakes after the producer's Yield
		log.rec(p, fmt.Sprintf("poll pop=%d", v))
		qp.pop(p, poll)     // 2, already queued: no park
		v = qp.pop(p, poll) // 3, likewise
		log.rec(p, fmt.Sprintf("poll pop=%d", v))
		p.Sleep(4) // t=9; item 4 comes at 15
		log.rec(p, "timer")
		v = qp.pop(p, poll)
		log.rec(p, fmt.Sprintf("poll pop=%d", v))
		p.Sleep(1)
		log.rec(p, "timer")
		v = qp.pop(p, poll) // t=30
		log.rec(p, fmt.Sprintf("poll pop=%d", v))
	})
	e.Spawn("waiter", func(p *Proc) {
		p.Sleep(7) // ev1 fires at 12
		log.rec(p, "timer")
		ev1.Wait(p)
		log.rec(p, "event")
		ev1.Wait(p) // fired: no park
		p.Sleep(2)
		log.rec(p, "timer")
		ev2.Wait(p)
		log.rec(p, "event")
	})
	e.Spawn("waiter2", func(p *Proc) {
		ev1.Wait(p)
		log.rec(p, "event")
		p.Sleep(18) // ev2 fires at t=30 too, but this wake was queued first
		log.rec(p, "timer")
	})
	e.Spawn("firer", func(p *Proc) {
		p.Sleep(12) // same instant as tick's 4th tick
		log.rec(p, "timer")
		ev1.Fire()
		p.Engine().Spawn("kid", func(c *Proc) {
			log.rec(c, "event")
			c.Sleep(18) // t=30
			log.rec(c, "timer")
			ev2.Fire()
		})
		p.Sleep(0)
		log.rec(p, "timer")
	})
	for i := 0; i < 3; i++ {
		e.Spawn(fmt.Sprintf("link%d", i), func(p *Proc) {
			link.Acquire(p, 1)
			log.rec(p, "acquired")
			p.Sleep(4)
			log.rec(p, "timer")
			link.Release(1)
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
	fired := gapWatch(4)
	ev2.Notifies(fired)
	e.Spawn("watch", func(p *Proc) {
		poll(p, &cond{hit: ev2.Fired}, fired, 0) // ev2 fires at 30, between the ticks at 28 and 32
		log.rec(p, "poll")
		poll(p, &cond{hit: never}, gapWatch(5), p.Now().Add(12)) // ticks at 37 and 42, until at 44
		log.rec(p, "poll")
	})
}

// goldenWakes is goldenScenario's log as the goroutine-and-channels engine of
// PR 13 (c00e21a) produced it, with its Events() and MaxQueueLen(); the
// poller's lines and events are the tick-by-tick loop's on PR 21's engine.
// The scenario's waits with a timeout are now the Sleep or the Pop/Wait that
// won them, at the same place in their instant: one line, the consumer's
// timeout at 9, says "timer" where it said "timer pop=0". The consumer's Pop
// is now a poll of the queue (TryPop, then Proc.Poll on a Watch that Push
// notifies): its lines say "poll" where they said "event", and its first wake
// at 5, a poll's wake, runs after every plain wake of its instant, so after
// the producer's Yield, where the Pop's ran before it.
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
	"5 producer timer",
	"5 consumer poll pop=1",
	"5 consumer poll pop=3",
	"6 core0 timer",
	"6 tick timer",
	"6 core2 acquired 3",
	"7 waiter timer",
	"8 link1 timer",
	"8 link2 acquired",
	"9 consumer timer",
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
	"15 consumer poll pop=4",
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
	"30 consumer poll pop=5",
	"32 watch poll",
	"33 tick timer",
	"36 tick timer",
	"47 watch poll",
}

func TestGoldenDeliveryOrder(t *testing.T) {
	for _, poll := range []struct {
		name         string
		fn           pollFn
		events, maxq int
	}{
		// 55 without the watch process, 3 of them the consumer's parked
		// poll; the watch's loop adds its spawn wake and 11 ticks, its parked
		// poll its spawn wake and its two wakes. The consumer's loop ticks
		// every picosecond while the queue is empty: 25 wakes for the 3.
		{"Poll", enginePoll, 58, 13},
		{"loop", loopPoll, 89, 13},
	} {
		t.Run(poll.name, func(t *testing.T) { testGoldenDeliveryOrder(t, poll.fn, uint64(poll.events), poll.maxq) })
	}
}

func testGoldenDeliveryOrder(t *testing.T, poll pollFn, events uint64, maxq int) {
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
	if e.Events() != events || e.MaxQueueLen() != maxq {
		t.Fatalf("Events, MaxQueueLen = %d, %d, want %d, %d", e.Events(), e.MaxQueueLen(), events, maxq)
	}
}

// A poll loop's tick wake runs after every plain wake of its instant, and
// two processes' in spawn order, wherever each was queued: a store by a
// process whose wake was queued after the poller's tick is seen at that tick,
// and of two pollers ticking at one instant the one spawned first runs first
// although its tick was queued last.
func TestTickWakeRunsLastInItsInstant(t *testing.T) {
	for _, poll := range []struct {
		name string
		fn   pollFn
	}{{"Poll", enginePoll}, {"loop", loopPoll}} {
		t.Run(poll.name, func(t *testing.T) {
			e := NewEngine()
			var log wakeLog
			stored, set := false, false
			poller := func(name string, hit *bool, wt *Watch) {
				e.Spawn(name, func(p *Proc) {
					poll.fn(p, &cond{hit: func() bool { return *hit }}, wt, 0)
					log.rec(p, "poll")
				})
			}
			wa := gapWatch(10)
			poller("a", &stored, wa) // ticks at 0, 10: queued at 0
			e.Spawn("storer", func(p *Proc) {
				p.Sleep(5)
				p.Sleep(5) // at 10, queued at 5
				stored = true
				wa.Notify()
				log.rec(p, "store")
			})
			wb, wc := gapWatch(4), gapWatch(6)
			poller("b", &set, wb) // tick at 12 queued at 8
			poller("c", &set, wc) // tick at 12 queued at 6
			e.Spawn("setter", func(p *Proc) {
				p.Sleep(11)
				set = true
				wb.Notify()
				wc.Notify()
				log.rec(p, "set")
			})
			if err := e.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
			want := []string{"10 storer store", "10 a poll", "11 setter set", "12 b poll", "12 c poll"}
			if !slices.Equal(log, want) {
				t.Errorf("wakes = %q, want %q", []string(log), want)
			}
		})
	}
}

// pollBesideSleeper is the ring.Host.wait shape: a 200 ns poller, 24 of whose
// 25 ticks are the engine's next event, beside a 5 us sleeper whose every
// wake falls on the instant of a tick and was scheduled before it. With
// viaPoll the poller is one Proc.Poll that never hits, parked for good: no
// event and no log line of its own.
func pollBesideSleeper(e *Engine, log *wakeLog, viaPoll bool) {
	e.Spawn("poll", func(p *Proc) {
		if viaPoll {
			p.Poll(&cond{hit: never}, gapWatch(200*Nanosecond), 0)
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

// The event budget cuts a run short at the same event, with the same error
// and the same Events(), whether the event that trips it would have been
// taken in place by the poller or delivered by Run. A Proc.Poll that never
// hits is parked for good beside the sleeper: the sleeper alone runs into the
// budget, its wakes those of the loop's run.
func TestSelfWakeHonoursLimits(t *testing.T) {
	for _, tc := range []struct {
		name       string
		arm        func(e *Engine)
		err        error
		events     uint64
		now        Time
		lastWake   string
		totalWakes int
		// Events and Now beside a parked Proc.Poll.
		pollEvents uint64
		pollNow    Time
	}{
		// The budget runs out on one of the poller's own ticks.
		{"budget", func(e *Engine) { e.MaxEvents = 20 }, ErrEventLimit, 21, Time(3600 * Nanosecond), "3600000 poll timer", 18,
			21, Time(90 * Microsecond)},
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
					events, now := tc.events, tc.now
					if viaPoll {
						events, now = tc.pollEvents, tc.pollNow
					}
					if e.Events() != events || e.Now() != now {
						t.Errorf("Events, Now = %d, %d, want %d, %d", e.Events(), int64(e.Now()), events, int64(now))
					}
					if viaPoll {
						// The loop's log without the poller's lines, as far as
						// the loop's run went.
						var want wakeLog
						for _, l := range loopLog {
							if !strings.Contains(l, " poll ") {
								want = append(want, l)
							}
						}
						if len(log) < len(want) || !slices.Equal(log[:len(want)], want) {
							t.Errorf("wakes = %q, want the sleeper's %q first", []string(log), []string(want))
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
	if ticks != 7 || e.Events() != 8 || e.Now() != 70 || len(e.eq) != 1 {
		t.Fatalf("ticks, Events, Now, QueueLen = %d, %d, %v, %d, want 7, 8, 70ps, 1", ticks, e.Events(), e.Now(), len(e.eq))
	}
}

// A parking process never takes its own wake ahead of another process's
// earlier event, nor ahead of one at the same instant that was scheduled
// first.
func TestSelfWakeNeverOvertakes(t *testing.T) {
	e := NewEngine()
	ev := NewEvent(e)
	var log wakeLog
	e.Spawn("a", func(p *Proc) {
		ev.Wait(p)
		log.rec(p, "event")
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
	// 2 spawn wakes + 7 logged ones.
	if e.Events() != 9 {
		t.Fatalf("Events = %d, want 9", e.Events())
	}
}

// Shutdown unwinds a process parked in each primitive through its deferred
// calls, never runs the body of one that had not started, and leaves no
// coroutine behind.
func TestShutdownUnwindsEveryPrimitive(t *testing.T) {
	before := settledGoroutines()
	e := NewEngine()
	never := NewEvent(e)
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
		cores.Acquire(p, 1)
		never.Wait(p)
	})
	parkIn("sleep", func(p *Proc) { p.Sleep(Second) })
	var polling *Proc
	parkIn("poll", func(p *Proc) { polling = p; p.Poll(&cond{hit: never.Fired}, gapWatch(Second), 0) })
	parkIn("wait", func(p *Proc) { never.Wait(p) })
	parkIn("semaphore", func(p *Proc) { cores.Acquire(p, 1) })
	parkIn("defer-parks", func(p *Proc) {
		defer p.Sleep(1) // a park while being killed is killed too
		never.Wait(p)
	})
	e.Spawn("stopper", func(p *Proc) {
		p.Sleep(1)
		p.Engine().Spawn("unstarted", func(*Proc) { t.Error("unstarted: body ran") })
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
	want := []string{"holder", "sleep", "poll", "wait", "semaphore", "defer-parks"}
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

// settledGoroutines returns runtime.NumGoroutine once it has stopped
// falling, waiting a second at most: the goroutine of the test before may
// still be on its way out, and is no part of this one's baseline.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for deadline, still := time.Now().Add(time.Second), 0; still < 5 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m < n {
			still = 0
		} else {
			still++
		}
		n = m
	}
	return n
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
			p.Engine().Spawn("short", func(c *Proc) { c.Sleep(1) })
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
	e.Spawn("zed", func(p *Proc) { ev.Wait(p) })
	e.Spawn("gone", func(p *Proc) { p.Sleep(1) })
	e.Spawn("amy", func(p *Proc) { p.Sleep(5); p.Poll(&cond{hit: never}, gapWatch(1), 0) })
	err := e.Run()
	e.Shutdown()
	const want = "simtime: deadlock: no pending events but processes are parked: at t=5ps: [amy (poll) zed (event)]"
	if !errors.Is(err, ErrDeadlock) || err.Error() != want {
		t.Fatalf("err = %v\nwant  %s", err, want)
	}
}
