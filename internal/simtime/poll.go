package simtime

import (
	"fmt"
	"math"
)

// Poller is the condition and the cost of a poll loop, which Proc.Poll runs
// parked on a Watch. A tick of the loop asks up to two questions: Tick, before
// the poll is issued — does the process take this tick itself, and if not, how
// long does the poll take? — and Hit, at the poll's end: did it find what the
// process waits for? A free poll (cost zero) asks both at the tick.
//
// Tick and Hit are pure reads of simulated state. The engine asks them on the
// process's own stack and, when the Watch is notified, on the notifier's, so
// they must not park and must change nothing a process can observe.
type Poller interface {
	// Tick is asked for the tick at at, when the process reaches it or parks
	// in front of it, and when a notify may have changed its answer. take
	// reports that the process must take the tick itself: the poll could do
	// more than take cost and read (pass a live fault site, record a span),
	// or the process has something else to look at. Otherwise cost is the
	// simulated time the poll takes, zero for a poll that is free. The answer
	// stands for the later ticks of a park until the Watch is notified or, if
	// lapse is not zero, until the first tick at or after lapse: an answer
	// that the clock alone changes (a fault window that opens) says when.
	Tick(at Time) (cost Duration, take bool, lapse Time)
	// Hit reports whether the poll succeeds: at the tick for a free poll, at
	// the end of its cost otherwise.
	Hit() bool
	// Missed accounts for n polls that missed, besides their gaps (the
	// Watch's Backoff): a count of the loads they issued, say.
	Missed(n int64)
}

// Free completes the Poller of a free poll that only waits for Hit.
type Free struct{}

// Tick implements Poller.
func (Free) Tick(Time) (Duration, bool, Time) { return 0, false, 0 }

// Missed implements Poller: a free poll leaves no trace.
func (Free) Missed(int64) {}

// A Watch is where Proc.Poll parks a poll loop: the gap schedule of its ticks,
// and the poll parked on it now. What changes what the poll's Tick or Hit
// reads calls Notify — the store that lands a flag word (mem.Memory.Watch), a
// Queue push, an Event's Fire, a card's crash — so a quiet poll costs no
// event: the poll is woken once, on its own grid, where the loop would first
// have seen the change. One poll at a time parks on a Watch.
type Watch struct {
	Backoff
	w *pollPark // the poll parked here, if any
}

// pollPark is a process parked in Proc.Poll: its poll and Watch, its grid,
// and its one queued wake: at due (noWake: none), on grid point dueK.
type pollPark struct {
	p     *Proc
	poll  Poller
	watch *Watch
	grid
	due  Time
	dueK int64
}

// noWake is the time of a wake that is not queued.
const noWake = Time(math.MaxInt64)

// Poll is
//
//	for {
//		cost, take, _ := q.Tick(p.Now())
//		if take {
//			return false
//		}
//		if cost > 0 {
//			p.Sleep(cost) // a tick sleep
//		}
//		if q.Hit() {
//			return true
//		}
//		p.Sleep(wt.Gap()) // a tick sleep
//		q.Missed(1)
//		if until != 0 && p.Now() >= until {
//			return false
//		}
//	}
//
// except that p parks on wt wherever the loop would only pass through: the
// end of a poll that misses and the ticks that follow it. One wake is queued
// for the first tick at or after until, and for the first tick at or after
// the lapse of Tick's answer; a Notify that makes Hit true queues one for the
// first poll end at or after it, and one that makes the next tick taken, for
// that tick, if either comes before what is queued. The misses passed over
// are accounted at the wake, in one Backoff step and one Missed. Poll
// reports whether it returned on a hit.
//
// The loop's two sleeps are tick sleeps: their wakes run after every other
// wake of their instant, and two processes' tick wakes in spawn order. A
// parked poll's wake stands for one and takes its place.
func (p *Proc) Poll(q Poller, wt *Watch, until Time) bool {
	e := p.eng
	atTick := true // the process is at a tick, else at the end of a poll it issued
	for entry := true; ; entry = false {
		if atTick {
			if !entry && until != 0 && e.now >= until {
				return false
			}
			cost, take, lapse := e.tick(p, q, e.now)
			if take {
				return false
			}
			if cost > 0 {
				atTick = p.parkPoll(q, wt, e.now.Add(cost), true, cost, lapse, until)
				continue
			}
		}
		if e.hit(p, q) {
			return true
		}
		gap := max(wt.Gap(), 0)
		q.Missed(1)
		atTick = p.parkPoll(q, wt, e.now.Add(gap), false, 0, 0, until)
	}
}

// parkPoll parks p on wt until the loop's next grid point that matters: next
// is a tick, or with issued the end of the poll issued at the tick now, which
// costs cost and whose Tick answer lapses at lapse. It accounts for the
// misses passed over and reports whether the wake is a tick (else the end of
// a poll that costs).
func (p *Proc) parkPoll(q Poller, wt *Watch, next Time, issued bool, cost Duration, lapse, until Time) bool {
	e := p.eng
	if !issued {
		// The tick's answer, asked before it comes: a tick the process takes
		// is its next wake, as the loop's sleep.
		c, take, l := e.tick(p, q, next)
		if take {
			p.tickSleep(next.Sub(e.now))
			return true
		}
		cost, lapse = c, l
	}
	if wt.w != nil {
		panic(twoPolls(p))
	}
	w := &p.polling
	*w = pollPark{p: p, poll: q, watch: wt, due: noWake,
		grid: grid{next: next, issued: issued, cost: cost, gaps: wt.Backoff}}
	if issued {
		w.k0 = 1 // the tick now is behind
	}
	for _, at := range [...]Time{until, lapse} {
		if at != 0 {
			if k, t, ok := w.find(at, w.k0, tickPoint); ok {
				w.queue(k, t)
			}
		}
	}
	if issued && e.hit(p, q) {
		w.queue(w.k0, next)
	}
	wt.w = w
	p.park("poll")
	// A process killed in the park leaves its poll on wt, in an engine
	// that steps no more.
	wt.w, w.poll, w.watch = nil, nil, nil
	if n := w.misses(w.dueK); n > 0 {
		wt.skip(n)
		q.Missed(n)
	}
	return !w.isEnd(w.dueK)
}

// Notify tells the poll parked on wt, if any, that what its Tick or Hit reads
// may have changed. If Hit now holds, the poll is woken at the first end of a
// poll at or after now that the loop has not run yet; otherwise, if its Tick
// takes the first such tick, at that tick. A wake already queued before
// either stands.
func (wt *Watch) Notify() {
	w := wt.w
	if w == nil {
		return
	}
	e := w.p.eng
	e.asking = w.p
	k, at, ok := w.pending(tickPoint)
	if w.poll.Hit() {
		if w.cost > 0 {
			if ke, ae, oke := w.pending(endPoint); oke && ae < w.due {
				w.queue(ke, ae)
			}
		} else if ok && at < w.due {
			w.queue(k, at) // a free poll looks at its tick
		}
	}
	if ok && at < w.due {
		if _, take, _ := w.poll.Tick(at); take {
			w.queue(k, at)
		}
	}
	e.asking = nil
}

// Settle accounts, as the wake of the poll parked on wt would, for the polls
// of the park that ended and missed by now, and the park goes on from the
// tick after them: a reader of what Missed counts (a load count) then reads
// what the loop would have left there.
func (wt *Watch) Settle() {
	if w := wt.w; w != nil {
		if k, _, ok := w.pending(endPoint); ok {
			w.settle(k)
		}
	}
}

// settle accounts for the polls of w's park that end before grid point k and
// before its queued wake, and the park goes on from the tick after them.
func (w *pollPark) settle(k int64) {
	if w.due != noWake {
		k = min(k, w.dueK)
	}
	n := w.misses(k)
	if n == 0 {
		return
	}
	tick := n
	if w.cost > 0 {
		tick = 2 * n
	}
	at := w.at(tick)
	w.watch.skip(n)
	w.gaps.skip(n)
	w.poll.Missed(n)
	w.next, w.issued, w.k0 = at, false, 0
	w.dueK -= tick
}

// The kinds of grid points find looks for.
const (
	tickPoint = iota
	endPoint
)

// pending is find from now on, past a grid point at now that the loop has
// run already: its wake, with w's process's key, sorts before one delivered
// at now.
func (w *pollPark) pending(kind int) (int64, Time, bool) {
	e := w.p.eng
	k, at, ok := w.find(e.now, w.k0, kind)
	if ok && at == e.now && w.p.key < e.cur {
		k, at, ok = w.find(e.now, k+1, kind)
	}
	return k, at, ok
}

// queue makes w's one queued wake the one at grid point k, at at, with its
// process's key. A wake already queued is moved, earlier.
func (w *pollPark) queue(k int64, at Time) {
	e := w.p.eng
	queued := w.due != noWake
	w.due, w.dueK = at, k
	if !queued {
		e.push(event{at: at, seq: w.p.key, p: w.p})
		return
	}
	for i := range e.eq {
		if e.eq[i].p == w.p {
			e.eq[i].at = at
			e.eq.up(i)
			return
		}
	}
}

// A grid is the wakes a parked loop would have passed through: point k0 is
// the first after the park — its tick (next), or with issued the end of the
// poll issued at the park (next). For a free poll point k is the tick of poll
// k; for one that costs, point 2j is poll j's tick and 2j+1 its end. Each
// miss adds a gap from gaps, and the cost of the next poll.
type grid struct {
	next   Time
	issued bool
	cost   Duration
	k0     int64
	gaps   Backoff // as at point k0
}

// misses returns how many polls end before grid point k.
func (g *grid) misses(k int64) int64 {
	if g.cost > 0 {
		return k / 2
	}
	return k
}

// isEnd reports whether grid point k ends a poll that costs.
func (g *grid) isEnd(k int64) bool { return g.cost > 0 && k%2 == 1 }

// at returns the time of grid point k.
func (g *grid) at(k int64) Time {
	kind := tickPoint
	if g.isEnd(k) {
		kind = endPoint
	}
	_, at, _ := g.find(math.MinInt64, k, kind)
	return at
}

// find returns the first grid point from k on of the kind asked for — a
// tick, or a poll's end (for a free poll, its tick) — that is at or after x,
// and its time. ok is false when there is none before the end of time.
func (g *grid) find(x Time, k int64, kind int) (int64, Time, bool) {
	c := g.cost
	if c == 0 {
		return g.walk(x, k)
	}
	if kind == endPoint {
		j, at, ok := g.walk(x, k/2)
		return 2*j + 1, at, ok
	}
	j, at, ok := g.walk(x.Add(c), (k+1)/2) // a tick is at or after x where its poll's end is at or after x+c
	return 2 * j, at - Time(c), ok
}

// walk returns the first poll from j on whose end is at or after x, and the
// time of that end. Poll 0 is the one of point k0; each miss adds its
// Backoff gap and the cost of the next poll.
func (g *grid) walk(x Time, from int64) (int64, Time, bool) {
	c := g.cost
	end := g.next
	if !g.issued {
		end = end.Add(c)
	}
	b := g.gaps
	var j int64
	for {
		gap, steady := b.run()
		step := int64(gap + c)
		m := max(from-j, 0)
		switch {
		case step > 0 && x > end:
			m = max(m, ceilDiv(x.Sub(end), Duration(step)))
		case step <= 0 && x > end:
			return 0, 0, false
		}
		n := min(m, steady)
		if step > 0 && n > (math.MaxInt64-int64(end))/step {
			return 0, 0, false
		}
		if m <= steady {
			return j + m, end + Time(n*step), true
		}
		j += n
		end += Time(n * step)
		b.skip(n)
	}
}

// tick asks q's Tick on p's own stack.
func (e *Engine) tick(p *Proc, q Poller, at Time) (Duration, bool, Time) {
	e.asking = p
	cost, take, lapse := q.Tick(at)
	e.asking = nil
	return cost, take, lapse
}

// hit asks q's Hit on p's own stack.
func (e *Engine) hit(p *Proc, q Poller) bool {
	e.asking = p
	h := q.Hit()
	e.asking = nil
	return h
}

func twoPolls(p *Proc) string {
	return fmt.Sprintf("simtime: process %q polls on a Watch another poll is parked on", p.name)
}

func parkedInPoller(p *Proc) string {
	return fmt.Sprintf("simtime: the Poller of process %q parked inside Tick or Hit", p.name)
}

// ceilDiv is ⌈d/p⌉ for p > 0, and 0 for d ≤ 0.
func ceilDiv(d, p Duration) int64 {
	if d <= 0 {
		return 0
	}
	return int64((d-1)/p) + 1
}

// Backoff is the gap schedule of a poller that may sit idle for long: Base
// between polls, doubled after every miss once the poller has been idle for
// After, up to Max and never past it; the next hit puts it back to Base. So a
// quiet poller's grid thins out, while back-to-back work always sees Base.
type Backoff struct {
	Base, After, Max Duration
	// PollCost is what one missed poll adds to the idle time on top of its
	// gap: the duration of a poll that is not free.
	PollCost Duration

	gap, idle Duration
}

// Gap returns the gap after one more miss, and counts it.
func (b *Backoff) Gap() Duration {
	g := b.Current()
	b.skip(1)
	return g
}

// run returns the gap the next miss gets and how many misses in a row get
// that same gap (math.MaxInt64: all of them): the gap stays constant until
// the miss that doubles it, and for good once it has reached Max.
func (b *Backoff) run() (Duration, int64) {
	g := b.Current()
	step := g + b.PollCost
	switch {
	case g >= b.Max:
		return g, math.MaxInt64
	case b.idle >= b.After || step <= 0:
		return g, 1
	}
	return g, int64((b.After - b.idle + step - 1) / step)
}

// skip counts n misses at once, as n calls of Gap would.
func (b *Backoff) skip(n int64) {
	for n > 0 {
		g, steady := b.run()
		k := min(n, steady)
		b.idle += Duration(k) * (g + b.PollCost)
		if b.idle >= b.After && g < b.Max {
			b.gap = min(2*g, b.Max)
		}
		n -= k
	}
}

// Current returns the gap the next miss will get, without counting one.
func (b *Backoff) Current() Duration {
	if b.gap == 0 {
		return b.Base
	}
	return b.gap
}

// Reset records a hit.
func (b *Backoff) Reset() { b.gap, b.idle = 0, 0 }
