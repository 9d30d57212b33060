package simtime

import "fmt"

// Poller is the condition, the cadence and the cost of a poll loop that
// Proc.Poll runs as one park. A tick of the loop asks up to two questions, at
// up to two instants: at the tick, Tick — does the process take this tick
// itself, and if not, how long does the poll it issues take? — and, that
// cost later, Hit — did the poll find what the process waits for? A free poll
// (cost zero) asks both at the tick.
//
// Tick and Hit are pure reads of simulated state: state only a running
// process changes, never the clock, nor anything Gap changes. That is what
// lets the engine ask each of them once per run of a process and keep the
// answer until the next one (Engine.tick, Engine.hit). It asks them on
// whatever stack it happens to be running, so they must not park and must
// change nothing a process can observe.
type Poller interface {
	// Tick is asked at every tick. take reports that the process must take
	// the tick itself: the poll it would issue could do more than take cost
	// and read (pass a fault site, record a span), or it has something else
	// to look at. Otherwise cost is the simulated time the poll takes, zero
	// for a poll that is free.
	Tick() (cost Duration, take bool)
	// Hit reports whether the poll succeeds: at the tick for a free poll, at
	// the end of its cost otherwise.
	Hit() bool
	// Gap returns the time from a poll that missed to the next tick. It is
	// called exactly once per missed poll, so it may advance back-off state
	// (and count the poll).
	Gap() Duration
}

// Free completes the Poller of a free poll that only waits for Hit: its ticks
// cost nothing and are all the engine's.
type Free struct{}

// Tick implements Poller.
//
//hot:path
func (Free) Tick() (Duration, bool) { return 0, false }

// Poll is
//
//	for {
//		cost, take := q.Tick()
//		if take {
//			return false
//		}
//		if cost > 0 {
//			p.Sleep(cost)
//		}
//		if q.Hit() {
//			return true
//		}
//		p.Sleep(q.Gap())
//		if until != 0 && p.Now() >= until {
//			return false
//		}
//	}
//
// except that p is not switched to for the wakes it would only pass through:
// a tick on which the poll is issued, and the end of a poll that missed. Each
// is a wake event like Sleep's, in the same place in (at, seq) order, and
// Engine.step answers it on the spot — from Run or from whichever process is
// parking. Every wake time, Events, MaxQueueLen and the MaxEvents / Deadline
// cut-offs are those of the loop (DESIGN.md §8, "a poll loop is one park").
// Poll reports whether it returned on a hit.
//
//hot:path
func (p *Proc) Poll(q Poller, until Time) bool {
	e := p.eng
	w := p.singleWaiter()
	// The memo starts empty: q, or what it polls, may not be last call's.
	w.poll, w.until, w.ticked, w.hitAsked = q, until, 0, 0
	e.asking = p
	e.tick(w)
	hit := !w.take && w.cost <= 0 && e.hit(w)
	e.asking = nil
	if w.take || hit {
		w.poll = nil
		return hit
	}
	next := e.now.Add(w.cost)
	if w.cost <= 0 {
		next = e.now.Add(pollGap(q))
	}
	w.issued = w.cost > 0
	e.schedule(next, w, reasonTimer)
	p.park("poll")
	// The scratch waiter goes back to plain parks without the Poller. (A
	// process killed in the park keeps it, in an engine that steps no more.)
	w.poll = nil
	return w.hit
}

// tick puts Tick to w's Poller, unless it was asked in this run already, and
// leaves the answer in w.cost and w.take.
//
//hot:path
func (e *Engine) tick(w *waiter) {
	if w.ticked != e.runs {
		e.asks++
		w.cost, w.take = w.poll.Tick()
		w.ticked = e.runs
	}
}

// hit puts Hit to w's Poller, unless it was asked in this run already.
//
//hot:path
func (e *Engine) hit(w *waiter) bool {
	if w.hitAsked != e.runs {
		e.asks++
		w.found = w.poll.Hit()
		w.hitAsked = e.runs
	}
	return w.found
}

// pollGap is q's next gap as Sleep would take it.
func pollGap(q Poller) Duration {
	return max(q.Gap(), 0)
}

//hot:cold
func parkedInPoller(p *Proc) string {
	return fmt.Sprintf("simtime: the Poller of process %q parked inside Tick or Hit", p.name)
}

// answers reports whether step answers the wake at of w's poll itself — a
// tick on which the poll is issued, the end of a poll that missed — rather
// than delivering it: the until tick, a tick the process takes, a hit. It
// records in w what the loop learnt there: the poll's cost, and the hit Poll
// returns once a wake is delivered. While it asks, the engine is marked, so
// that a question which parks — it would run w's process's code on another
// process's stack — panics in park.
//
//hot:path
func (e *Engine) answers(w *waiter, at Time) bool {
	w.hit = false
	if !w.issued && w.until != 0 && at >= w.until {
		return false
	}
	e.asking = w.p
	if !w.issued { // a tick
		if e.tick(w); w.take || w.cost > 0 {
			e.asking = nil
			return !w.take
		}
	}
	w.hit = e.hit(w)
	e.asking = nil
	return !w.hit
}

// repoll is what the polling process would do at the wake of w that step has
// just popped, counted and set the clock to, and that answers says it only
// passes through: Sleep for the cost of the poll it issues at a tick, ask Gap
// and Sleep after a miss. The next wake is queued as Sleep would queue it.
// But while it would come strictly before every queued event no process can
// run before it, so every answer stands: the wake is counted, numbered and
// the clock moved as if delivered, and the heap never sees it (skips). A
// question not asked in this run yet is asked first; one the memo holds from
// this run passed a wake of w through already — an answer on which the engine
// delivers one is followed by that delivery, which ends the run — so it passes
// this one too. The first wake at or after the head, one the process must see
// (the until tick, a tick it takes, a hit) and one a cut-off would refuse are
// queued for real, behind everything queued, as they would have been.
//
//hot:path
func (e *Engine) repoll(w *waiter, maxEvents uint64) {
	q, cost, issued := w.poll, w.cost, w.issued
	// Whether the memo holds Tick's answer and Hit's from this run, kept in
	// registers for the skipping: no process runs in here. A free tick that
	// asked Tick asked Hit too.
	run := e.runs
	ticked, hitAsked := w.ticked == run, w.hitAsked == run
	for next := e.now; ; {
		e.polls++
		if issued = !issued && cost > 0; issued {
			next = next.Add(cost) // the poll the tick issued ends
		} else {
			next = next.Add(pollGap(q)) // the next tick
		}
		w.issued = issued
		if !e.skips(w, next, !issued, maxEvents) {
			e.schedule(next, w, reasonTimer)
			return
		}
		if (issued && !hitAsked) || (!issued && !ticked) {
			if !e.answers(w, next) {
				e.schedule(next, w, reasonTimer)
				return
			}
			cost, ticked, hitAsked = w.cost, w.ticked == run, w.hitAsked == run
		}
		e.seq++
		e.events++
		e.now = next
	}
}

// skips reports whether repoll may count the wake of w at next without the
// heap: it comes strictly before every queued event, it is not the until
// tick, and neither Deadline nor MaxEvents refuses it. No queued event was
// popped on the way, so the push that ends the skipping sees the heap at the
// length every skipped push would have seen: MaxQueueLen agrees.
func (e *Engine) skips(w *waiter, next Time, tick bool, maxEvents uint64) bool {
	return (len(e.eq) == 0 || next < e.eq[0].at) &&
		!(tick && w.until != 0 && next >= w.until) &&
		(e.Deadline == 0 || next <= e.Deadline) && e.events < maxEvents
}

// PollTicks returns how many wakes of Proc.Poll the engine answered itself —
// ticks on which it issued a poll that costs, polls that missed — the ones
// that never reached the heap included. Each is also counted in Events.
func (e *Engine) PollTicks() uint64 { return e.polls }

// PollAsks returns how many questions — Tick or Hit — the engine put to a
// Poller, in Proc.Poll and for the wakes it answered. An answer stands until
// a process runs, so this counts runs more than ticks.
func (e *Engine) PollAsks() uint64 { return e.asks }

// Backoff is the gap schedule of a poller that may sit idle for long: Base
// between polls, doubled after every miss once the poller has been idle for
// After, up to Max and never past it; the next hit puts it back to Base. So a
// quiet poller does not flood the event queue, while back-to-back work always
// sees Base.
type Backoff struct {
	Base, After, Max Duration
	// PollCost is what one missed poll adds to the idle time on top of its
	// gap: the duration of a poll that is not free.
	PollCost Duration

	gap, idle Duration
}

// Gap implements Poller: the gap after one more miss.
//
//hot:path
func (b *Backoff) Gap() Duration {
	g := b.Current()
	b.idle += g + b.PollCost
	if b.idle >= b.After && g < b.Max {
		b.gap = min(2*g, b.Max)
	}
	return g
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
