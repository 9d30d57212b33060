package simtime

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
)

// pollFn is how a test process polls: parked on the Watch or, as the oracle,
// tick by tick.
type pollFn func(p *Proc, q Poller, wt *Watch, until Time) bool

func enginePoll(p *Proc, q Poller, wt *Watch, until Time) bool { return p.Poll(q, wt, until) }

// loopPoll is the loop Proc.Poll is defined as, written out.
func loopPoll(p *Proc, q Poller, wt *Watch, until Time) bool {
	for {
		cost, take, _ := q.Tick(p.Now())
		if take {
			return false
		}
		if cost > 0 {
			p.tickSleep(cost)
		}
		if q.Hit() {
			return true
		}
		gap := wt.Gap()
		q.Missed(1)
		p.tickSleep(gap)
		if until != 0 && p.Now() >= until {
			return false
		}
	}
}

// gapWatch is a Watch whose gap is g for good.
func gapWatch(g Duration) *Watch { return &Watch{Backoff: Backoff{Base: g, Max: g}} }

// cond is a free Poller over a condition.
type cond struct {
	Free
	hit func() bool
}

func (c *cond) Hit() bool { return c.hit() }

// costed makes a Poller's poll take cost, and its ticks the process's own
// while take says so — or, with flips, while take and the number of flips at
// or before the tick disagree: the clock alone flips the answer, and the
// next flip is when it lapses.
type costed struct {
	Poller
	cost  Duration
	take  func() bool
	flips []Time // ascending
}

func (c *costed) Tick(at Time) (Duration, bool, Time) {
	take := c.take()
	for _, f := range c.flips {
		if f > at {
			return c.cost, take, f
		}
		take = !take
	}
	return c.cost, take, 0
}

func never() bool { return false }

// counted counts the misses accounted for a Poller: the loop one at a time,
// Proc.Poll also many at once. They stand for what a miss leaves behind (a
// load count), so the counts must agree: own for one Poll, all for a world.
type counted struct {
	Poller
	own uint64
	all *uint64
}

func (c *counted) Missed(n int64) {
	c.own += uint64(n)
	*c.all += uint64(n)
	c.Poller.Missed(n)
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

// pollWorld is the outcome of one generated world: what its processes can
// observe.
type pollWorld struct {
	log    wakeLog
	now    Time
	err    string
	misses uint64 // every Missed n, of every poller
	// What the worlds reach, for the generator's health: polls that until, or
	// a tick the process took, ended; whether the stopper cut the run short,
	// other processes still live; and whether Run was called again.
	byUntil, byTake int
	cutShort        bool
	resumed         bool
	// Notifies more than farRuns runs after the grid point before (longGap).
	farNotifies int
	// Readers of a poller's store with a grid point at its instant, spawned
	// before the storer (they see it a period later) and after it (they see
	// it there) (pollerStores).
	tiedBefore, tiedAfter int
}

// farRuns is how many runs of another process the long gap world's notify
// comes after the grid point before, at least, in a third of its worlds.
const farRuns = 256

// A worldShape adds to a generated world one source of the wakes of a parked
// poll, or one way of crowding them.
type worldShape uint16

const (
	// bystander runs between the pollers' ticks and touches nothing they
	// read.
	bystander worldShape = 1 << iota
	// flipBetweenTicks toggles a flag, or a take, between the pollers' ticks,
	// often at one of their instants: a store, notified.
	flipBetweenTicks
	// pollerWakesInPlace makes the flag pollers share one flag and poll again
	// at once after a hit they consumed: a poller's own process changes what
	// the others read, and a Poll that returned on entry is followed by one
	// in the same run.
	pollerWakesInPlace
	// resumedRun stops the run, changes the flags and takes from outside the
	// engine, notifying, and calls Run again.
	resumedRun
	// steadyPollers adds three to five pollers whose polls cost, each on a
	// Backoff that has reached its Max, at phases and periods of their own.
	steadyPollers
	// tiedPollers adds two to four pollers that start at one instant on the
	// same pattern (or on its mirror image: cost and gap swapped, or a free
	// poll every period), so that their grid points tie over and over.
	tiedPollers
	// hitInHorizon adds quiet pollers and a setter that raises their flags and
	// takes at odd times: the flag-store world, where one poller hits, or
	// its tick is taken, while the others stay parked.
	hitInHorizon
	// untilTicks adds quiet pollers whose every poll ends at its until tick:
	// the until wake.
	untilTicks
	// lapsingTakes adds pollers whose polls cost and whose Tick takes or
	// leaves the tick by the clock alone, flipping at drawn instants with no
	// process running, and declares when its answer lapses: the fault-window
	// lapse wake.
	lapsingTakes
	// crashes adds pollers whose polls cost and whose ticks are taken once
	// their card has crashed, and a crasher that notifies only their watch,
	// as veos.Card.Kill does: the crash wake.
	crashes
	// pushOrFire adds a poller of a queue the Push of which notifies it, and
	// one of an Event whose Fire does, with nobody else notifying them.
	pushOrFire
	// pollerStores adds a poller that, at its hit, stores a flag every watch
	// reads — at once, or after a Yield at that instant — and readers of that
	// flag spawned before it and after it, on grids that fall on its
	// instant: a reader whose tick ties with the store sees it there only if
	// its tick runs after the storer's, that is, if it was spawned after it.
	pollerStores
	allShapes = 1<<iota - 1
	// longGap adds a poller whose gap spans hundreds of runs, a shadow that
	// runs at each of its ticks, spawned before or after it, a process that
	// runs every picosecond, and a setter: the notified wake ties with the
	// shadow's, often more than farRuns runs after the grid point it stands
	// for. Only its named world has it.
	longGap = allShapes + 1
)

// worldShapes names a world for each shape. The wake sources a parked poll
// has are each one's own: flag store (hit in a horizon), crash, queue push
// or Event.Fire, fault-window lapse (lapsing takes) and until (until ticks).
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
	{"lapsing takes", lapsingTakes},
	{"crash", crashes},
	{"queue push or Event.Fire", pushOrFire},
	{"poller stores", pollerStores},
	{"long gap", longGap},
}

// runPollWorld expands seed into a small world — 1-4 pollers over flags, a
// queue and an event, with fixed and back-off gaps, free polls or polls that
// cost and whose ticks are the process's while a flag says so, and optional
// until; sleepers; flippers of those flags; an event firer; a queue producer;
// a stopper that ends the run; and the shapes the seed draws, plus those in
// force — and runs it with Proc.Poll or, as the oracle, with the loop. Every
// change to what a poller reads notifies every watch, as a store to a watched
// word does, except where a shape wires a source to one watch. All times are
// small integers, so ticks, load ends, flips and wakes collide at the same
// timestamp all the time.
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
	var watches, quietWatches []*Watch // notified by every change, and by their own source only
	changed := func() {
		for _, wt := range watches {
			wt.Notify()
		}
	}
	q := NewQueue[int](e, "q")
	ev := NewEvent(e)
	// watch makes a Watch over the schedule b that every change notifies.
	watch := func(b Backoff) *Watch {
		wt := &Watch{Backoff: b}
		watches = append(watches, wt)
		return wt
	}
	// poll polls pl on wt and reports the misses of this Poll alone.
	poll := func(p *Proc, pl Poller, wt *Watch, until Time) (bool, uint64) {
		c := &counted{Poller: pl, all: &w.misses}
		if byLoop {
			return loopPoll(p, c, wt, until), c.own
		}
		return p.Poll(c, wt, until), c.own
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
			hit, consume = func() bool { return flags[f] }, func() { flags[f] = false; changed() }
		}
		var pl Poller = &cond{hit: hit}
		gap := Duration(1 + pr.n(5))
		b := Backoff{Base: gap, Max: gap}
		if pr.n(3) == 0 {
			base := Duration(1 + pr.n(3))
			b = Backoff{Base: base, After: Duration(3 + pr.n(20)), Max: base << pr.n(4)}
		}
		wt := watch(b)
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
				got, misses := poll(p, pl, wt, until)
				switch {
				case got:
				case take():
					w.byTake++
				default:
					w.byUntil++
				}
				w.log.rec(p, fmt.Sprintf("poll hit=%v misses=%d", got, misses))
				if got {
					consume()
					wt.Reset()
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
				changed()
				w.log.rec(p, "flip")
			}
		})
	}
	if pr := r.fork(); r.n(2) == 0 {
		e.Spawn("firer", func(p *Proc) {
			p.Sleep(Duration(pr.n(40)))
			ev.Fire()
			changed()
			w.log.rec(p, "fire")
		})
	}
	if pr := r.fork(); r.n(2) == 0 {
		e.Spawn("producer", func(p *Proc) {
			for k, n := 0, 1+pr.n(5); k < n; k++ {
				p.Sleep(Duration(pr.n(10)))
				q.Push(k)
				changed()
				w.log.rec(p, "push")
			}
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
				changed()
				w.log.rec(p, "flip")
			}
		})
	}
	// quiet spawns a process that waits delay and then polls pl on wt rounds
	// times, each until the time until draws (0: none).
	quiet := func(name string, pl Poller, wt *Watch, delay Duration, rounds int, until func(p *Proc) Time) {
		e.Spawn(name, func(p *Proc) {
			p.Sleep(delay)
			for k := 0; k < rounds; k++ {
				got, misses := poll(p, pl, wt, until(p))
				w.log.rec(p, fmt.Sprintf("poll hit=%v misses=%d", got, misses))
			}
		})
	}
	noUntil := func(*Proc) Time { return 0 }
	// flagPoll is a poll of flag f (none past the flags), costing cost (0:
	// free); its ticks are the process's while take says so.
	flagPoll := func(f int, cost Duration, take func() bool) Poller {
		pl := Poller(&cond{hit: func() bool { return f < len(flags) && flags[f] }})
		if cost > 0 {
			pl = &costed{Poller: pl, cost: cost, take: take}
		}
		return pl
	}
	if shapes&steadyPollers != 0 {
		pr := sr.fork()
		for i, n := 0, 3+pr.n(3); i < n; i++ {
			base, f := Duration(1+pr.n(3)), pr.n(len(flags))
			wt := watch(Backoff{Base: base, After: Duration(pr.n(4)), Max: base << (1 + pr.n(3)), PollCost: Duration(pr.n(2))})
			for wt.Current() < wt.Max {
				wt.Gap()
			}
			quiet(fmt.Sprintf("steady%d", i), flagPoll(f, Duration(1+pr.n(4)), never), wt, Duration(pr.n(8)), 1+pr.n(3), noUntil)
		}
	}
	if shapes&tiedPollers != 0 {
		pr := sr.fork()
		c, g, f := Duration(1+pr.n(3)), Duration(1+pr.n(3)), pr.n(len(flags)+1)
		patterns := []func() (Poller, *Watch){
			func() (Poller, *Watch) { return flagPoll(f, c, never), watch(Backoff{Base: g, Max: g}) },
			func() (Poller, *Watch) { return flagPoll(f, g, never), watch(Backoff{Base: c, Max: c}) },
			func() (Poller, *Watch) { return flagPoll(f, 0, never), watch(Backoff{Base: c + g, Max: c + g}) },
		}
		for i, n := 0, 2+pr.n(3); i < n; i++ {
			k := 0
			if i >= 2 {
				k = pr.n(len(patterns))
			}
			pl, wt := patterns[k]()
			quiet(fmt.Sprintf("tied%d", i), pl, wt, 0, 1+pr.n(3), noUntil)
		}
	}
	if shapes&hitInHorizon != 0 {
		pr := sr.fork()
		for i, n := 0, 2+pr.n(3); i < n; i++ {
			t := &takes[pr.n(2)]
			g := Duration(1 + pr.n(4))
			pl := flagPoll(pr.n(len(flags)), Duration(pr.n(4)), func() bool { return *t })
			quiet(fmt.Sprintf("hitter%d", i), pl, watch(Backoff{Base: g, Max: g}), Duration(pr.n(5)), 1+pr.n(4), noUntil)
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
				changed()
				w.log.rec(p, "set")
			}
		})
	}
	if shapes&untilTicks != 0 {
		pr := sr.fork()
		for i, n := 0, 2+pr.n(3); i < n; i++ {
			g := Duration(1 + pr.n(4))
			pl := flagPoll(len(flags), Duration(pr.n(4)), never)
			ur := pr.fork()
			quiet(fmt.Sprintf("until%d", i), pl, watch(Backoff{Base: g, Max: g}), Duration(pr.n(5)), 1+pr.n(4), func(p *Proc) Time {
				return p.Now().Add(Duration(1 + ur.n(60)))
			})
		}
	}
	if shapes&lapsingTakes != 0 {
		pr := sr.fork()
		for i, n := 0, 2+pr.n(4); i < n; i++ {
			flips := make([]Time, 1+pr.n(8))
			for k := range flips {
				flips[k] = Time(1 + pr.n(300))
			}
			slices.Sort(flips)
			g := Duration(1 + pr.n(4))
			pl := &costed{Poller: &cond{hit: func() bool { return flags[0] }},
				cost: Duration(1 + pr.n(4)), take: never, flips: flips}
			quiet(fmt.Sprintf("lapsing%d", i), pl, watch(Backoff{Base: g, Max: g}), Duration(pr.n(5)), 1+pr.n(6), noUntil)
		}
	}
	if shapes&crashes != 0 {
		pr := sr.fork()
		for i, n := 0, 1+pr.n(3); i < n; i++ {
			crashed := false
			base := Duration(1 + pr.n(3))
			wt := &Watch{Backoff: Backoff{Base: base, After: Duration(pr.n(30)), Max: base << pr.n(3)}}
			quietWatches = append(quietWatches, wt)
			pl := &costed{Poller: &cond{hit: never}, cost: Duration(pr.n(4)), take: func() bool { return crashed }}
			quiet(fmt.Sprintf("card%d", i), pl, wt, Duration(pr.n(5)), 1, noUntil)
			cr := pr.fork()
			e.Spawn(fmt.Sprintf("crasher%d", i), func(p *Proc) {
				p.Sleep(Duration(cr.n(120)))
				crashed = true
				wt.Notify()
				w.log.rec(p, "crash")
			})
		}
	}
	if shapes&pushOrFire != 0 {
		pr := sr.fork()
		jobs, done := NewQueue[int](e, "jobs"), NewEvent(e)
		for i, source := range []struct {
			hit    func() bool
			notify func(*Watch)
		}{{func() bool { return jobs.Len() > 0 }, jobs.Notifies}, {done.Fired, done.Notifies}} {
			g := Duration(1 + pr.n(4))
			wt := &Watch{Backoff: Backoff{Base: g, After: Duration(pr.n(20)), Max: g << pr.n(3)}}
			quietWatches = append(quietWatches, wt)
			source.notify(wt)
			var pl Poller = &cond{hit: source.hit}
			if pr.n(2) == 0 {
				pl = &costed{Poller: pl, cost: Duration(1 + pr.n(3)), take: never}
			}
			quiet(fmt.Sprintf("source%d", i), pl, wt, Duration(pr.n(5)), 1, noUntil)
		}
		sp := pr.fork()
		e.Spawn("pusher", func(p *Proc) {
			p.Sleep(Duration(sp.n(80)))
			jobs.Push(1)
			w.log.rec(p, "push")
			p.Sleep(Duration(sp.n(80)))
			done.Fire()
			w.log.rec(p, "fire")
		})
	}

	if shapes&longGap != 0 {
		pr := sr.fork()
		g := Duration(2*farRuns + pr.n(farRuns))
		set := false
		wt := &Watch{Backoff: Backoff{Base: g, Max: g}}
		quietWatches = append(quietWatches, wt)
		shadow := func(p *Proc) {
			for k := 0; k < 4; k++ {
				p.Sleep(g)
				w.log.rec(p, "shadow")
			}
		}
		first := pr.n(2) == 0
		if first {
			e.Spawn("shadow", shadow)
		}
		quiet("long", &cond{hit: func() bool { return set }}, wt, 0, 1, noUntil)
		if !first {
			e.Spawn("shadow", shadow)
		}
		e.Spawn("busy", func(p *Proc) {
			for k := Duration(0); k < 4*g; k++ {
				p.Sleep(1)
			}
		})
		at := Duration(1 + pr.n(int(3*g)))
		e.Spawn("setter", func(p *Proc) {
			p.Sleep(at)
			set = true
			wt.Notify()
			w.log.rec(p, "set")
		})
		if at%g > farRuns {
			w.farNotifies++
		}
	}

	if shapes&pollerStores != 0 {
		pr := sr.fork()
		var start, relay bool
		storedAt := Time(-1)
		type reader struct {
			before bool
			period Duration
			hitAt  Time
		}
		var readers []*reader
		spawnReaders := func(before bool) {
			for i, n := 0, 1+pr.n(3); i < n; i++ {
				c, g := Duration(pr.n(3)), Duration(1+pr.n(3))
				rd := &reader{before: before, period: c + g, hitAt: -1}
				readers = append(readers, rd)
				pl := Poller(&cond{hit: func() bool { return relay }})
				if c > 0 {
					pl = &costed{Poller: pl, cost: c, take: never}
				}
				wt := watch(Backoff{Base: g, Max: g})
				e.Spawn(fmt.Sprintf("reader%v%d", before, i), func(p *Proc) {
					got, misses := poll(p, pl, wt, 0)
					if got {
						rd.hitAt = p.Now()
					}
					w.log.rec(p, fmt.Sprintf("poll hit=%v misses=%d", got, misses))
				})
			}
		}
		spawnReaders(true)
		g, yield := Duration(1+pr.n(3)), pr.n(2) == 0
		var pl Poller = &cond{hit: func() bool { return start }}
		if c := Duration(pr.n(3)); c > 0 {
			pl = &costed{Poller: pl, cost: c, take: never}
		}
		wt := watch(Backoff{Base: g, Max: g})
		e.Spawn("storer", func(p *Proc) {
			got, misses := poll(p, pl, wt, 0)
			w.log.rec(p, fmt.Sprintf("poll hit=%v misses=%d", got, misses))
			if yield {
				p.Yield()
			}
			relay, storedAt = true, p.Now()
			changed()
			w.log.rec(p, "store")
		})
		spawnReaders(false)
		at := Duration(1 + pr.n(40))
		e.Spawn("starter", func(p *Proc) {
			p.Sleep(at)
			start = true
			changed()
			w.log.rec(p, "start")
		})
		defer func() {
			for _, rd := range readers {
				switch {
				case storedAt < 0:
				case rd.before && rd.hitAt == storedAt.Add(rd.period):
					w.tiedBefore++
				case !rd.before && rd.hitAt == storedAt:
					w.tiedAfter++
				}
			}
		}()
	}

	// A poller nobody answers polls for ever: a stopper ends the run at at,
	// or at once if at is past, behind the plain wakes already queued there
	// and before the tick wakes.
	stopper := func(at Time) {
		e.Spawn("stopper", func(p *Proc) {
			p.Sleep(at.Sub(p.Now()))
			w.cutShort = e.first != p || e.last != p
			w.log.rec(p, "stop")
			e.Stop()
		})
	}
	pr, cut := r.fork(), r.n(3)
	if shapes&resumedRun != 0 {
		cut = 1
	}
	switch cut {
	case 0:
		stopper(Time(3 + pr.n(80)))
	case 1:
		stopper(Time(pr.n(60)))
	default:
		stopper(5000)
	}

	err := e.Run()
	if shapes&resumedRun != 0 && err == nil && e.stop {
		w.err, w.resumed = "stopped; then ", true
		for i := range flags {
			flags[i] = !flags[i]
		}
		takes[0], takes[1] = !takes[0], !takes[1]
		changed()
		e.stop = false
		stopper(Time(60 + sr.n(200)))
		err = e.Run()
	}
	if err != nil {
		w.err += err.Error()
	}
	// What a process reading the clock and the counters after Run sees.
	for _, wt := range append(watches, quietWatches...) {
		wt.Settle()
	}
	w.now = e.Now()
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
	if byEngine.now != byLoop.now || byEngine.err != byLoop.err {
		t.Fatalf("seed %d: Now, Run error\n  with Poll     %d, %q\n  with the loop %d, %q", seed,
			int64(byEngine.now), byEngine.err, int64(byLoop.now), byLoop.err)
	}
	if byEngine.misses != byLoop.misses {
		t.Fatalf("seed %d: %d misses accounted with Poll, %d with the loop", seed, byEngine.misses, byLoop.misses)
	}
	return byEngine, byLoop
}

// Proc.Poll against the loop it is defined as, over generated worlds: the
// same deliveries (process, time, reason, and the misses of each poll) in the
// same order, the same Run error, the same Now and every miss accounted
// once. Events, MaxQueueLen and QueueLen are not compared: a parked poll's
// misses are no events. Each named world forces one shape on every seed.
func TestPollEquivalence(t *testing.T) {
	for _, ws := range worldShapes {
		t.Run(ws.name, func(t *testing.T) {
			resumed, far, before, after := 0, 0, 0, 0
			var misses uint64
			for seed := uint64(0); seed < 300; seed++ {
				w, _ := checkPollWorld(t, seed, ws.shape)
				misses += w.misses
				far += w.farNotifies
				before += w.tiedBefore
				after += w.tiedAfter
				if w.resumed {
					resumed++
				}
			}
			if misses < 5_000 || (ws.shape == resumedRun && resumed < 200) || (ws.shape == longGap && far < 100) ||
				(ws.shape == pollerStores && (before < 100 || after < 100)) {
				t.Errorf("300 worlds accounted %d misses, resumed %d runs, notified %d polls far past their grid point and tied %d, %d readers with a store: the generator has gone soft",
					misses, resumed, far, before, after)
			}
		})
	}
	var misses uint64
	var byUntil, byTake, cutShort, clean int
	for seed := uint64(0); seed < 1000; seed++ {
		w, _ := checkPollWorld(t, seed, 0)
		misses += w.misses
		byUntil += w.byUntil
		byTake += w.byTake
		if w.cutShort {
			cutShort++
		} else {
			clean++
		}
	}
	t.Logf("misses=%d byUntil=%d byTake=%d cutShort=%d clean=%d", misses, byUntil, byTake, cutShort, clean)
	// The generator must keep reaching what the comparison is about.
	if misses < 50_000 || byUntil < 300 || byTake < 300 || cutShort < 100 || clean < 100 {
		t.Errorf("1000 worlds accounted %d misses, %d polls ended by until, %d by a tick the process took, %d runs cut short and %d clean: the generator has gone soft",
			misses, byUntil, byTake, cutShort, clean)
	}
}

func FuzzPollEquivalence(f *testing.F) {
	// The seed draws the world's shapes.
	for _, seed := range []uint64{0, 1, 7, 31, 1 << 40, 1007, 1021, 1195, 1234} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) { checkPollWorld(t, seed, 0) })
}

// A quiet poll is no event: Poll parks once, and the misses it passed over
// are accounted at the wake, one Missed for all of them.
func TestPollCountsSkippedMisses(t *testing.T) {
	e := NewEngine()
	flag := false
	wt := gapWatch(3)
	var misses, calls uint64
	pl := &counted{Poller: &cond{hit: func() bool { return flag }}, all: &misses}
	e.Spawn("poll", func(p *Proc) {
		p.Poll(pl, wt, 0)
		if p.Now() != 102 || misses != 34 {
			t.Errorf("poll returned at %v after %d misses, want 102ps and 34", p.Now(), misses)
		}
		p.Poll(&counted{Poller: &cond{hit: never}, all: &calls}, gapWatch(5), p.Now().Add(12)) // ticks at 107, 112, 117
		if p.Now() != 117 || calls != 3 {
			t.Errorf("poll with until returned at %v after %d misses, want 117ps and 3", p.Now(), calls)
		}
	})
	e.Spawn("set", func(p *Proc) {
		p.Sleep(100)
		flag = true
		wt.Notify()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// 2 spawns, set's wake, the hit at 102 and the until at 117.
	if e.Events() != 5 {
		t.Errorf("Events = %d, want 5", e.Events())
	}
}

// A Hit that parks is refused by name, whether it is asked on the poller's
// own stack, on a notifying process's, or outside any process, on the
// goroutine that drives the engine.
func TestHitMustNotPark(t *testing.T) {
	const want = `simtime: the Poller of process "bad" parked inside Tick or Hit`
	parksAfter := func(e *Engine, calls int) (bad *Proc, wt *Watch) {
		wt = gapWatch(2)
		pl := &cond{hit: func() bool {
			if calls--; calls < 0 {
				bad.Sleep(1)
			}
			return false
		}}
		bad = e.Spawn("bad", func(p *Proc) { p.Poll(pl, wt, 0) })
		return bad, wt
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
		_, wt := parksAfter(e, 1)
		e.Spawn("bystander", func(p *Proc) {
			p.Sleep(1)
			wt.Notify() // asks bad's Hit
		})
		err := e.Run()
		e.Shutdown()
		if err == nil || err.Error() != `simtime: process "bystander" panicked: `+want {
			t.Fatalf("Run = %v", err)
		}
	})
	t.Run("Run's stack", func(t *testing.T) {
		e := NewEngine()
		_, wt := parksAfter(e, 1)
		if err := e.Run(); !errors.Is(err, ErrDeadlock) {
			t.Fatalf("Run = %v, want the deadlock of a poll parked with no wake", err)
		}
		defer func() {
			if r := recover(); r != want {
				t.Fatalf("Notify panicked with %v, want %q", r, want)
			}
			e.Shutdown()
		}()
		wt.Notify()
		t.Fatal("Notify returned")
	})
}

// A Tick that parks is refused by name, as a Hit is.
func TestTickMustNotPark(t *testing.T) {
	e := NewEngine()
	var bad *Proc
	pl := &costed{Poller: &cond{hit: never}, cost: 1, take: func() bool {
		bad.Sleep(1)
		return false
	}}
	bad = e.Spawn("bad", func(p *Proc) { p.Poll(pl, gapWatch(2), 0) })
	err := e.Run()
	e.Shutdown()
	const want = `simtime: process "bad" panicked: simtime: the Poller of process "bad" parked inside Tick or Hit`
	if err == nil || err.Error() != want {
		t.Fatalf("Run = %v", err)
	}
}

// The park record a poll used carries no Poller into the process's next park,
// and the Watch lets it go: a plain Sleep after a Poll is a Sleep, and a
// notify of the Watch then wakes nobody.
func TestScratchWaiterForgetsPoller(t *testing.T) {
	e := NewEngine()
	flag := true
	wt := gapWatch(2)
	e.Spawn("p", func(p *Proc) {
		pl := &cond{hit: func() bool { return flag }}
		flag = false
		p.Spawn("set", func(c *Proc) { c.Sleep(5); flag = true; wt.Notify() })
		p.Poll(pl, wt, 0) // hits on the tick at 6
		if p.Now() != 6 || p.polling.poll != nil || wt.w != nil {
			t.Errorf("Poll returned at %v, holding poller %v on watch %v; want 6ps and neither", p.Now(), p.polling.poll, wt.w)
		}
		p.Spawn("notify", func(c *Proc) { c.Sleep(3); wt.Notify() })
		p.Sleep(10)
		if p.Now() != 16 {
			t.Errorf("Sleep(10) after a Poll ended at %v, want 16ps", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// Time.Add saturates, so a timeout of the largest Duration never comes: a
// Sleep for it wakes at the end of time, after everything else, and a poll
// until it waits for its hit.
func TestMaxTimeoutNeverExpires(t *testing.T) {
	if got := Time(1).Add(Duration(math.MaxInt64)); got != math.MaxInt64 {
		t.Errorf("1ps + MaxInt64 = %d, want MaxInt64", int64(got))
	}
	if got := Time(-1).Add(Duration(math.MinInt64)); got != math.MinInt64 {
		t.Errorf("-1ps + MinInt64 = %d, want MinInt64", int64(got))
	}
	e := NewEngine()
	flag := false
	wt := gapWatch(4)
	var log wakeLog
	e.Spawn("sleep", func(p *Proc) {
		p.Sleep(1)
		p.Sleep(Duration(math.MaxInt64))
		log.rec(p, "timer")
	})
	e.Spawn("poll", func(p *Proc) {
		p.Sleep(10)
		log.rec(p, "timer")
		log.rec(p, fmt.Sprintf("poll hit=%v", p.Poll(&cond{hit: func() bool { return flag }}, wt, p.Now().Add(Duration(math.MaxInt64)))))
	})
	e.Spawn("set", func(p *Proc) {
		p.Sleep(21)
		flag = true
		wt.Notify()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"10 poll timer", "22 poll poll hit=true", fmt.Sprintf("%d sleep timer", int64(math.MaxInt64))}
	if !slices.Equal(log, want) {
		t.Errorf("wakes = %q, want %q", []string(log), want)
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

// skip(n) leaves a Backoff where n calls of Gap would, across the runs of
// constant gaps and the doublings between them.
func TestBackoffSkip(t *testing.T) {
	for _, b := range []Backoff{
		{Base: 3, After: 40, Max: 3 << 5, PollCost: 2},
		{Base: 5, After: 0, Max: 5 << 3},
		{Base: 7, After: 1000, Max: 7},
	} {
		for n := int64(0); n < 60; n++ {
			byGap, bySkip := b, b
			for range n {
				byGap.Gap()
			}
			bySkip.skip(n)
			if byGap != bySkip {
				t.Fatalf("%+v: skip(%d) = %+v, %d Gaps = %+v", b, n, bySkip, n, byGap)
			}
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

// takeAfterMiss misses its first tick, and takes the next two: one Poll asks
// Tick at entry, again after the miss (which the loop then sleeps to as its
// own, a tick sleep) and at that tick.
type takeAfterMiss struct {
	Free
	ticks int
}

func (q *takeAfterMiss) Tick(Time) (Duration, bool, Time) {
	q.ticks++
	return 0, q.ticks%3 != 1, 0
}

func (q *takeAfterMiss) Hit() bool { return false }

// TestPollTakenTickZeroAlloc: a poll that misses and then takes its next
// tick — a dmab flag poll whose loads stop being quiet — sleeps to that tick
// and allocates nothing.
func TestPollTakenTickZeroAlloc(t *testing.T) {
	e := NewEngine()
	q, wt := &takeAfterMiss{}, gapWatch(10)
	var allocs float64
	e.Spawn("poller", func(p *Proc) {
		poll := func() {
			q.ticks = 0
			if p.Poll(q, wt, 0) || q.ticks != 3 {
				t.Errorf("Poll took %d ticks, want 3 and no hit", q.ticks)
			}
		}
		poll()
		allocs = testing.AllocsPerRun(1000, poll)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if allocs != 0 {
		t.Fatalf("a poll that takes its tick allocates %.2f times per call, want 0", allocs)
	}
}
