package simtime

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// pollFn is how a test process polls: through the engine or, as the oracle,
// tick by tick.
type pollFn func(p *Proc, q Poller, until Time) bool

func enginePoll(p *Proc, q Poller, until Time) bool { return p.Poll(q, until) }

// loopPoll is the loop Proc.Poll is defined as, written out.
func loopPoll(p *Proc, q Poller, until Time) bool { return countedLoop(p, q, until, new(uint64)) }

// countedLoop is loopPoll, counting in answered the wakes Proc.Poll leaves
// to the engine: every tick but the first on which a poll that costs is
// issued, and every poll that misses but a free first one (Poll asks that one
// itself).
func countedLoop(p *Proc, q Poller, until Time, answered *uint64) bool {
	for first := true; ; first = false {
		cost, take := q.Tick()
		if take {
			return false
		}
		if cost > 0 {
			if !first {
				*answered++
			}
			p.Sleep(cost)
		}
		if q.Hit() {
			return true
		}
		if cost > 0 || !first {
			*answered++
		}
		p.Sleep(q.Gap())
		if until != 0 && p.Now() >= until {
			return false
		}
	}
}

// cond is a free Poller over a condition, polled every gap.
type cond struct {
	Free
	hit func() bool
	gap Duration
}

func (c *cond) Hit() bool     { return c.hit() }
func (c *cond) Gap() Duration { return c.gap }

func (c *cond) Misses(int64) (Duration, int64) { return c.gap, math.MaxInt64 }

// backoffCond is a free Poller over a condition, polled on a Backoff
// schedule.
type backoffCond struct {
	Free
	Backoff
	hit func() bool
}

func (c *backoffCond) Hit() bool { return c.hit() }

// costed makes a Poller's poll take cost, and its ticks the process's own
// while take says so.
type costed struct {
	Poller
	cost Duration
	take func() bool
}

func (c *costed) Tick() (Duration, bool) { return c.cost, c.take() }

func never() bool { return false }

// counted counts what is asked of a Poller. The loop asks Gap exactly once
// per poll that missed, and so must the engine, since Gap may carry state;
// Tick and Hit the engine asks no more often than the loop does — once per
// run of a process, where the loop asks at every instant.
type counted struct {
	Poller
	gaps, asks *uint64
}

func (c *counted) Tick() (Duration, bool) {
	*c.asks++
	return c.Poller.Tick()
}

func (c *counted) Hit() bool {
	*c.asks++
	return c.Poller.Hit()
}

func (c *counted) Gap() Duration {
	*c.gaps++
	return c.Poller.Gap()
}

func (c *counted) Misses(n int64) (Duration, int64) {
	*c.gaps += uint64(n)
	return c.Poller.Misses(n)
}

// rng is splitmix64: the worlds below must not depend on math/rand's stream.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) n(k int) int { return int(r.next() % uint64(k)) }

// fork returns an independent stream, so that what one process draws does not
// depend on how the processes interleave.
func (r *rng) fork() *rng { f := rng(r.next()); return &f }

// pollWorld is the outcome of one generated world.
type pollWorld struct {
	log       wakeLog
	events    uint64
	maxq      int
	qlen      int
	now       Time
	err       string
	pollTicks uint64 // Engine.PollTicks
	// The instants the loop passed through that Proc.Poll leaves to the
	// engine (countedLoop), of free and of costed polls.
	answered, answeredCosted uint64
	gaps                     uint64 // Gap calls, of every poller
	asks                     uint64 // Tick and Hit calls, of every poller
	pollAsks                 uint64 // Engine.PollAsks
	byUntil, byTake          int    // polls that until, or a tick the process took, ended
	resumed                  bool   // Run was called again after a cut-off
	ahead                    uint64 // wakes Engine.ahead answered
}

// A worldShape adds to a generated world one way a process can run between a
// parked poller's questions, for the engine's memo of their answers
// (Engine.tick, Engine.hit) to go stale.
type worldShape uint16

const (
	// bystander runs between the pollers' ticks and touches nothing they
	// read: each of its runs moves the run epoch and no answer changes (a VE
	// whose armed loop runs a process on every poll, beside quiet ones).
	bystander worldShape = 1 << iota
	// flipBetweenTicks toggles a flag, or a take, between the pollers' ticks,
	// often taking its own wake in place.
	flipBetweenTicks
	// pollerWakesInPlace makes the flag pollers share one flag and poll again
	// at once after a hit they consumed: a poller's own process changes what
	// the others read, and a Poll that returned on entry is followed by one
	// in the same run.
	pollerWakesInPlace
	// resumedRun changes the flags and takes from outside the engine after a
	// cut-off ended Run, raises the cut-off and calls Run again.
	resumedRun
	// The shapes below are where Engine.ahead answers several parked polls at
	// once: long stretches in which no process runs.
	//
	// steadyPollers adds three to five pollers whose polls cost, each on a
	// Backoff that has reached its Max, at phases and periods of their own.
	steadyPollers
	// tiedPollers adds two to four pollers that start at one instant on the
	// same pattern (or on its mirror image: cost and gap swapped, or a free
	// poll every period), so that their wakes tie over and over.
	tiedPollers
	// hitInHorizon adds quiet pollers and a setter that raises their flags and
	// takes at odd times: one of them hits, or its tick is taken, where the
	// others' wakes would otherwise have been answered on.
	hitInHorizon
	// untilTicks adds quiet pollers whose every poll ends at its until tick.
	untilTicks
	// cutoffInHorizon adds quiet pollers that never hit and moves MaxEvents or
	// Deadline to fall among their wakes.
	cutoffInHorizon
	allShapes = 1<<iota - 1
)

var worldShapes = []struct {
	name  string
	shape worldShape
}{
	{"bystander", bystander},
	{"flip between ticks", flipBetweenTicks},
	{"poller wakes in place", pollerWakesInPlace},
	{"resumed run", resumedRun},
	{"steady pollers", steadyPollers},
	{"tied pollers", tiedPollers},
	{"hit in a horizon", hitInHorizon},
	{"until ticks", untilTicks},
	{"cut-off in a horizon", cutoffInHorizon},
}

// runPollWorld expands seed into a small world — 1-4 pollers over flags, a
// queue and an event, with fixed and back-off gaps, free polls or polls that
// cost and whose ticks are the process's while a flag says so, and optional
// until; sleepers; flippers of those flags;
// an event firer with timed-out waiters (stale wakes); a queue producer; a
// MaxEvents, Deadline or Stop cut-off; and the shapes the seed draws, plus
// those in force — and runs it with Proc.Poll or, as the oracle, with the
// loop. All times are small integers, so ticks, load ends, flips and wakes
// collide at the same timestamp all the time.
func runPollWorld(seed uint64, force worldShape, byLoop bool) *pollWorld {
	w := &pollWorld{}
	e := NewEngine()
	r := rng(seed)
	// The shapes draw from a stream of their own, so that a seed's world
	// without them is the world it always was; each is in one world of four.
	sr := rng(seed ^ 0x5ca1ab1e)
	shapes := force | worldShape(sr.n(allShapes+1)&sr.n(allShapes+1))
	var flags [3]bool
	var takes [2]bool
	q := NewQueue[int](e, "q")
	ev := NewEvent(e)
	poll := func(p *Proc, pl Poller, until Time) bool {
		n := &w.answered
		if _, ok := pl.(*costed); ok {
			n = &w.answeredCosted
		}
		pl = &counted{Poller: pl, gaps: &w.gaps, asks: &w.asks}
		if !byLoop {
			return p.Poll(pl, until)
		}
		return countedLoop(p, pl, until, n)
	}

	for i, n := 0, 1+r.n(4); i < n; i++ {
		pr := r.fork()
		var hit func() bool
		var consume func()
		switch f := pr.n(3); pr.n(4) {
		case 0:
			hit, consume = func() bool { return q.Len() > 0 }, func() { q.TryPop() }
		case 1:
			hit, consume = ev.Fired, func() {}
		default:
			if shapes&pollerWakesInPlace != 0 {
				f = 0
			}
			hit, consume = func() bool { return flags[f] }, func() { flags[f] = false }
		}
		var pl Poller = &cond{hit: hit, gap: Duration(1 + pr.n(5))}
		reset := func() {}
		if pr.n(3) == 0 {
			base := Duration(1 + pr.n(3))
			b := &backoffCond{hit: hit, Backoff: Backoff{Base: base, After: Duration(3 + pr.n(20)), Max: base << pr.n(4)}}
			pl, reset = b, b.Reset
		}
		take := never
		if pr.n(2) == 0 {
			t := &takes[pr.n(2)]
			take = func() bool { return *t }
			pl = &costed{Poller: pl, cost: Duration(1 + pr.n(4)), take: take}
		}
		e.Spawn(fmt.Sprintf("poller%d", i), func(p *Proc) {
			for round, rounds := 0, 1+pr.n(4); round < rounds; round++ {
				var until Time
				if pr.n(2) == 0 {
					until = p.Now().Add(Duration(1 + pr.n(30)))
				}
				gaps := w.gaps
				got := poll(p, pl, until)
				switch {
				case got:
				case take():
					w.byTake++
				default:
					w.byUntil++
				}
				w.log.rec(p, fmt.Sprintf("poll hit=%v gaps=%d", got, w.gaps-gaps))
				if got {
					consume()
					reset()
					if shapes&pollerWakesInPlace != 0 {
						continue // and poll again, in the same run
					}
				}
				// A plain park on the waiter the poll just used.
				p.Sleep(Duration(pr.n(5)))
				w.log.rec(p, "timer")
			}
		})
	}
	for i, n := 0, r.n(3); i < n; i++ {
		pr := r.fork()
		e.Spawn(fmt.Sprintf("sleeper%d", i), func(p *Proc) {
			for k, n := 0, 1+pr.n(8); k < n; k++ {
				p.Sleep(Duration(1 + pr.n(12)))
				w.log.rec(p, "timer")
			}
		})
	}
	for i, n := 0, 1+r.n(3); i < n; i++ {
		pr := r.fork()
		e.Spawn(fmt.Sprintf("flipper%d", i), func(p *Proc) {
			for k, n := 0, 1+pr.n(6); k < n; k++ {
				p.Sleep(Duration(pr.n(15)))
				if f := pr.n(5); f < len(flags) {
					flags[f] = pr.n(4) != 0
				} else {
					takes[f-len(flags)] = pr.n(4) == 0
				}
				w.log.rec(p, "flip")
			}
		})
	}
	if pr := r.fork(); r.n(2) == 0 {
		e.Spawn("firer", func(p *Proc) {
			p.Sleep(Duration(pr.n(40)))
			ev.Fire()
			w.log.rec(p, "fire")
		})
		e.Spawn("waiter", func(p *Proc) {
			w.log.rec(p, won(ev.WaitTimeout(p, Duration(pr.n(30)))))
			w.log.rec(p, won(ev.WaitTimeout(p, Duration(pr.n(30)))))
		})
	}
	if pr := r.fork(); r.n(2) == 0 {
		e.Spawn("producer", func(p *Proc) {
			for k, n := 0, 1+pr.n(5); k < n; k++ {
				p.Sleep(Duration(pr.n(10)))
				q.Push(k)
				w.log.rec(p, "push")
			}
		})
		e.Spawn("consumer", func(p *Proc) {
			_, ok := q.PopTimeout(p, Duration(pr.n(25)))
			w.log.rec(p, won(ok))
		})
	}
	if shapes&bystander != 0 {
		pr := sr.fork()
		e.Spawn("bystander", func(p *Proc) {
			for k, n := 0, 20+pr.n(60); k < n; k++ {
				p.Sleep(Duration(1 + pr.n(3)))
			}
		})
	}
	if shapes&flipBetweenTicks != 0 {
		pr := sr.fork()
		e.Spawn("toggler", func(p *Proc) {
			for k, n := 0, 10+pr.n(30); k < n; k++ {
				p.Sleep(Duration(1 + pr.n(3)))
				if f := pr.n(4); f < len(flags) {
					flags[f] = !flags[f]
				} else {
					takes[0] = !takes[0]
				}
				w.log.rec(p, "flip")
			}
		})
	}
	// quiet spawns a process that waits delay and then polls pl rounds times,
	// each until the time until draws (0: none).
	quiet := func(name string, pl Poller, delay Duration, rounds int, until func(p *Proc) Time) {
		e.Spawn(name, func(p *Proc) {
			p.Sleep(delay)
			for k := 0; k < rounds; k++ {
				gaps := w.gaps
				got := poll(p, pl, until(p))
				w.log.rec(p, fmt.Sprintf("poll hit=%v gaps=%d", got, w.gaps-gaps))
			}
		})
	}
	noUntil := func(*Proc) Time { return 0 }
	// constGap is a poll of flag f every gap, costing cost (0: free); its ticks
	// are the process's while take says so.
	constGap := func(f int, gap, cost Duration, take func() bool) Poller {
		pl := Poller(&cond{hit: func() bool { return f < len(flags) && flags[f] }, gap: gap})
		if cost > 0 {
			pl = &costed{Poller: pl, cost: cost, take: take}
		}
		return pl
	}
	if shapes&steadyPollers != 0 {
		pr := sr.fork()
		for i, n := 0, 3+pr.n(3); i < n; i++ {
			base, f := Duration(1+pr.n(3)), pr.n(len(flags))
			b := &backoffCond{hit: func() bool { return flags[f] }, Backoff: Backoff{
				Base: base, After: Duration(pr.n(4)), Max: base << (1 + pr.n(3)), PollCost: Duration(pr.n(2)),
			}}
			for b.Current() < b.Max {
				b.Gap()
			}
			pl := &costed{Poller: b, cost: Duration(1 + pr.n(4)), take: never}
			quiet(fmt.Sprintf("steady%d", i), pl, Duration(pr.n(8)), 1+pr.n(3), noUntil)
		}
	}
	if shapes&tiedPollers != 0 {
		pr := sr.fork()
		c, g, f := Duration(1+pr.n(3)), Duration(1+pr.n(3)), pr.n(len(flags)+1)
		patterns := []func() Poller{
			func() Poller { return constGap(f, g, c, never) },
			func() Poller { return constGap(f, c, g, never) },
			func() Poller { return constGap(f, c+g, 0, never) },
		}
		for i, n := 0, 2+pr.n(3); i < n; i++ {
			k := 0
			if i >= 2 {
				k = pr.n(len(patterns))
			}
			quiet(fmt.Sprintf("tied%d", i), patterns[k](), 0, 1+pr.n(3), noUntil)
		}
	}
	if shapes&hitInHorizon != 0 {
		pr := sr.fork()
		for i, n := 0, 2+pr.n(3); i < n; i++ {
			t := &takes[pr.n(2)]
			pl := constGap(pr.n(len(flags)), Duration(1+pr.n(4)), Duration(pr.n(4)), func() bool { return *t })
			quiet(fmt.Sprintf("hitter%d", i), pl, Duration(pr.n(5)), 1+pr.n(4), noUntil)
		}
		sp := pr.fork()
		e.Spawn("setter", func(p *Proc) {
			for k, n := 0, 2+sp.n(5); k < n; k++ {
				p.Sleep(Duration(5 + sp.n(60)))
				if f := sp.n(len(flags) + 1); f < len(flags) {
					flags[f] = true
				} else {
					takes[sp.n(2)] = sp.n(2) == 0
				}
				w.log.rec(p, "set")
			}
		})
	}
	if shapes&untilTicks != 0 {
		pr := sr.fork()
		for i, n := 0, 2+pr.n(3); i < n; i++ {
			pl := constGap(len(flags), Duration(1+pr.n(4)), Duration(pr.n(4)), never)
			ur := pr.fork()
			quiet(fmt.Sprintf("until%d", i), pl, Duration(pr.n(5)), 1+pr.n(4), func(p *Proc) Time {
				return p.Now().Add(Duration(1 + ur.n(60)))
			})
		}
	}
	if shapes&cutoffInHorizon != 0 {
		pr := sr.fork()
		for i, n := 0, 2+pr.n(3); i < n; i++ {
			pl := constGap(len(flags), Duration(1+pr.n(4)), Duration(pr.n(4)), never)
			quiet(fmt.Sprintf("endless%d", i), pl, Duration(pr.n(5)), 1, noUntil)
		}
	}

	// A poller nobody answers polls for ever; the deadline ends the run of an
	// engine that lost count.
	e.MaxEvents, e.Deadline = 1500, 5000
	pr, cut := r.fork(), r.n(4)
	if shapes&resumedRun != 0 {
		cut %= 2 // a cut-off that Run can be called again after
	}
	switch cut {
	case 0:
		e.MaxEvents = uint64(3 + pr.n(150))
	case 1:
		e.Deadline = Time(3 + pr.n(80))
	case 2:
		e.Spawn("stopper", func(p *Proc) {
			p.Sleep(Duration(pr.n(60)))
			w.log.rec(p, "stop")
			e.Stop()
		})
	}
	if shapes&cutoffInHorizon != 0 {
		if sr.n(2) == 0 {
			e.MaxEvents = uint64(20 + sr.n(400))
		} else {
			e.Deadline = Time(20 + sr.n(300))
		}
	}

	err := e.Run()
	if shapes&resumedRun != 0 && err != nil && !errors.Is(err, ErrDeadlock) {
		w.err, w.resumed = err.Error()+"; then ", true
		for i := range flags {
			flags[i] = !flags[i]
		}
		takes[0], takes[1] = !takes[0], !takes[1]
		e.MaxEvents, e.Deadline = e.Events()+uint64(3+sr.n(150)), e.Now().Add(Duration(3+sr.n(80)))
		err = e.Run()
	}
	switch {
	case errors.Is(err, ErrDeadlock):
		// A resumed run can lose a process with the wake the cut-off took:
		// the report names what it parked in, a poll or the loop's sleep.
		w.err += ErrDeadlock.Error()
	case err != nil:
		w.err += err.Error()
	}
	w.events, w.maxq, w.qlen, w.now, w.pollTicks = e.Events(), e.MaxQueueLen(), e.QueueLen(), e.Now(), e.PollTicks()
	w.pollAsks, w.ahead = e.PollAsks(), e.aheadWakes
	e.Shutdown()
	return w
}

// checkPollWorld runs one world both ways and reports every difference.
func checkPollWorld(t *testing.T, seed uint64, force worldShape) (byEngine, byLoop *pollWorld) {
	t.Helper()
	byEngine, byLoop = runPollWorld(seed, force, false), runPollWorld(seed, force, true)
	if !reflect.DeepEqual(byEngine.log, byLoop.log) {
		for i := 0; i < len(byEngine.log) || i < len(byLoop.log); i++ {
			var got, want string
			if i < len(byEngine.log) {
				got = byEngine.log[i]
			}
			if i < len(byLoop.log) {
				want = byLoop.log[i]
			}
			if got != want {
				t.Fatalf("seed %d: delivery %d is %q with Poll, %q with the loop", seed, i, got, want)
			}
		}
	}
	if byEngine.events != byLoop.events || byEngine.maxq != byLoop.maxq || byEngine.qlen != byLoop.qlen ||
		byEngine.now != byLoop.now || byEngine.err != byLoop.err {
		t.Fatalf("seed %d: Events, MaxQueueLen, QueueLen, Now, Run error\n  with Poll     %d, %d, %d, %d, %q\n  with the loop %d, %d, %d, %d, %q", seed,
			byEngine.events, byEngine.maxq, byEngine.qlen, int64(byEngine.now), byEngine.err,
			byLoop.events, byLoop.maxq, byLoop.qlen, int64(byLoop.now), byLoop.err)
	}
	if answered := byLoop.answered + byLoop.answeredCosted; byLoop.pollTicks != 0 || byEngine.pollTicks != answered {
		t.Fatalf("seed %d: the loop passed through %d instants Poll leaves to the engine (and PollTicks = %d); with Poll PollTicks = %d",
			seed, answered, byLoop.pollTicks, byEngine.pollTicks)
	}
	if byEngine.gaps != byLoop.gaps {
		t.Fatalf("seed %d: Gap was called %d times with Poll, %d with the loop", seed, byEngine.gaps, byLoop.gaps)
	}
	if byEngine.asks > byLoop.asks || byEngine.pollAsks != byEngine.asks {
		t.Fatalf("seed %d: Tick and Hit were asked %d times with Poll (PollAsks %d), %d with the loop",
			seed, byEngine.asks, byEngine.pollAsks, byLoop.asks)
	}
	return byEngine, byLoop
}

// Proc.Poll against the loop it is defined as, over generated worlds: the
// same deliveries (process, time, reason) in the same order, the same Events,
// MaxQueueLen, QueueLen, Now and Run error, Gap called as often (per poll
// and in all, misses accounted at once by Misses included), Tick and Hit
// asked no more often, and PollTicks counting exactly the instants the loop's
// process only passed through. Each named world forces one shape on every
// seed: where a memo of the answers that outlived its run would show, and
// where Engine.ahead answers several parked polls at once.
func TestPollEquivalence(t *testing.T) {
	for _, ws := range worldShapes {
		t.Run(ws.name, func(t *testing.T) {
			var saved, ahead uint64
			resumed := 0
			for seed := uint64(0); seed < 300; seed++ {
				w, loop := checkPollWorld(t, seed, ws.shape)
				saved += loop.asks - w.asks
				ahead += w.ahead
				if w.resumed {
					resumed++
				}
			}
			if saved < 5_000 || (ws.shape == resumedRun && resumed < 200) || (ws.shape >= steadyPollers && ahead < 1_000) {
				t.Errorf("300 worlds saved %d questions, resumed %d runs and answered %d wakes ahead: the generator has gone soft", saved, resumed, ahead)
			}
		})
	}
	var ticks, costed, ahead uint64
	var byUntil, byTake, deadlines, limits, clean int
	for seed := uint64(0); seed < 1000; seed++ {
		w, loop := checkPollWorld(t, seed, 0)
		ticks += w.pollTicks
		costed += loop.answeredCosted
		ahead += w.ahead
		byUntil += w.byUntil
		byTake += w.byTake
		switch {
		case strings.Contains(w.err, "deadline"):
			deadlines++
		case strings.Contains(w.err, "event limit"):
			limits++
		case w.err == "":
			clean++
		}
	}
	t.Logf("ticks=%d costed=%d ahead=%d byUntil=%d byTake=%d deadlines=%d limits=%d clean=%d", ticks, costed, ahead, byUntil, byTake, deadlines, limits, clean)
	// The generator must keep reaching what the comparison is about.
	if ticks < 50_000 || costed < 20_000 || ahead < 20_000 || byUntil < 300 || byTake < 300 || deadlines < 100 || limits < 100 || clean < 100 {
		t.Errorf("1000 worlds had %d engine-answered wakes (%d of polls that cost, %d ahead), %d polls ended by until, %d by a tick the process took, %d deadline, %d event-limit and %d clean runs: the generator has gone soft",
			ticks, costed, ahead, byUntil, byTake, deadlines, limits, clean)
	}
}

func FuzzPollEquivalence(f *testing.F) {
	// The last four are worlds of polls that cost, where a tick the process
	// takes ends a poll more than once. The seed draws the world's shapes,
	// the horizon worlds among them: steady pollers, tied pollers, a hit in
	// a horizon, until ticks, a cut-off in a horizon.
	for _, seed := range []uint64{0, 1, 7, 31, 1 << 40, 1007, 1021, 1195, 1234} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) { checkPollWorld(t, seed, 0) })
}

// PollTicks counts exactly the ticks that missed, skipped ones included, and
// each of them is an event.
func TestPollTicksCountsMisses(t *testing.T) {
	e := NewEngine()
	flag := false
	e.Spawn("poll", func(p *Proc) {
		p.Poll(&cond{hit: func() bool { return flag }, gap: 3}, 0)
		if p.Now() != 102 {
			t.Errorf("poll returned at %v, want 102ps", p.Now())
		}
		p.Poll(&cond{hit: never, gap: 5}, p.Now().Add(12)) // ticks at 107, 112, 117
		if p.Now() != 117 {
			t.Errorf("poll with until returned at %v, want 117ps", p.Now())
		}
	})
	e.Spawn("set", func(p *Proc) {
		p.Sleep(100)
		flag = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Ticks 3..99 miss (33), 102 hits; 107 and 112 miss, 117 is until.
	// Events: 2 spawns, set's wake, 34 + 3 ticks.
	if e.PollTicks() != 35 || e.Events() != 40 {
		t.Errorf("PollTicks, Events = %d, %d, want 35, 40", e.PollTicks(), e.Events())
	}
}

// A Hit that parks is refused by name, whether the engine evaluates it on the
// poller's own stack, on another process's, or on Run's.
func TestHitMustNotPark(t *testing.T) {
	const want = `simtime: the Poller of process "bad" parked inside Tick or Hit`
	parksAfter := func(e *Engine, calls int) (bad *Proc, pl Poller) {
		pl = &cond{gap: 2, hit: func() bool {
			if calls--; calls < 0 {
				bad.Sleep(1)
			}
			return false
		}}
		bad = e.Spawn("bad", func(p *Proc) { p.Poll(pl, 0) })
		return bad, pl
	}
	t.Run("own stack", func(t *testing.T) {
		e := NewEngine()
		parksAfter(e, 0)
		err := e.Run()
		e.Shutdown()
		if err == nil || err.Error() != `simtime: process "bad" panicked: `+want {
			t.Fatalf("Run = %v", err)
		}
	})
	t.Run("another process's stack", func(t *testing.T) {
		e := NewEngine()
		parksAfter(e, 1)
		e.Spawn("bystander", func(p *Proc) {
			p.Sleep(1)
			p.Sleep(10) // parks with bad's tick next in line
		})
		err := e.Run()
		e.Shutdown()
		if err == nil || err.Error() != `simtime: process "bystander" panicked: `+want {
			t.Fatalf("Run = %v", err)
		}
	})
	t.Run("Run's stack", func(t *testing.T) {
		e := NewEngine()
		parksAfter(e, 1)
		e.Spawn("bystander", func(*Proc) {}) // its spawn wake makes bad yield to Run
		defer func() {
			if r := recover(); r != want {
				t.Fatalf("Run panicked with %v, want %q", r, want)
			}
			e.Shutdown()
		}()
		_ = e.Run()
		t.Fatal("Run returned")
	})
}

// A Tick that parks is refused by name, as a Hit is.
func TestTickMustNotPark(t *testing.T) {
	e := NewEngine()
	var bad *Proc
	pl := &costed{Poller: &cond{hit: never, gap: 2}, cost: 1, take: func() bool {
		bad.Sleep(1)
		return false
	}}
	bad = e.Spawn("bad", func(p *Proc) { p.Poll(pl, 0) })
	err := e.Run()
	e.Shutdown()
	const want = `simtime: process "bad" panicked: simtime: the Poller of process "bad" parked inside Tick or Hit`
	if err == nil || err.Error() != want {
		t.Fatalf("Run = %v", err)
	}
}

// The waiter a poll parked on carries no Poller into the process's next park:
// a plain Sleep after a Poll whose condition has gone false again is a Sleep.
func TestScratchWaiterForgetsPoller(t *testing.T) {
	e := NewEngine()
	flag := true
	e.Spawn("p", func(p *Proc) {
		pl := &cond{hit: func() bool { return flag }, gap: 2}
		flag = false
		p.Spawn("set", func(c *Proc) { c.Sleep(5); flag = true })
		p.Poll(pl, 0) // hits on the tick at 6
		flag = false
		ticks := e.PollTicks()
		p.Sleep(10)
		if p.Now() != 16 || e.PollTicks() != ticks {
			t.Errorf("Sleep(10) after a Poll ended at %v with %d more poll ticks, want 16ps and none", p.Now(), e.PollTicks()-ticks)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// The Backoff schedule against the arithmetic both idle loops used to carry.
func TestBackoffSchedule(t *testing.T) {
	const base, after, factor = 150 * Nanosecond, 500 * Microsecond, 512
	for _, cost := range []Duration{0, 40 * Nanosecond} {
		b := Backoff{Base: base, After: after, Max: base * factor, PollCost: cost}
		interval, idle, peak := base, Duration(0), base
		for i := 0; i < 5000; i++ {
			peak = max(peak, interval)
			if i == 4000 {
				b.Reset()
				interval, idle = base, 0
			}
			if cur, got := b.Current(), b.Gap(); got != interval || cur != interval {
				t.Fatalf("cost %v: gap %d = %v (Current %v), want %v", cost, i, got, cur, interval)
			}
			idle += interval + cost
			if idle >= after && interval < base*factor {
				interval *= 2
			}
		}
		if peak != base*factor || interval != base {
			t.Fatalf("cost %v: the reference peaked at %v and ended at %v, want %v and %v", cost, peak, interval, base*factor, base)
		}
	}
}

// The gap doubles up to Max and no further, whether or not Max is Base times
// a power of two.
func TestBackoffStopsAtMax(t *testing.T) {
	for _, c := range []struct {
		base, max Duration
		want      []Duration
	}{
		{300, 1000, []Duration{300, 600, 1000, 1000}},
		{300, 1200, []Duration{300, 600, 1200, 1200}},
		{300, 301, []Duration{300, 301, 301}},
		{300, 300, []Duration{300, 300}},
		{300, 200, []Duration{300, 300}}, // Max below Base: Base stays
	} {
		b := Backoff{Base: c.base, Max: c.max}
		for i, want := range c.want {
			if got := b.Gap(); got != want {
				t.Errorf("Base %v, Max %v: gap %d = %v, want %v", c.base, c.max, i, got, want)
			}
		}
	}
}
