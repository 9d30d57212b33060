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
// process changes, never the clock, nor anything Gap changes. The engine
// asks them any number of times, on whatever stack it happens to be running,
// so they must not park and must change nothing a process can observe.
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
	e.asking = p
	cost, take := q.Tick()
	hit := !take && cost <= 0 && q.Hit()
	e.asking = nil
	if take || hit {
		return hit
	}
	next := e.now.Add(cost)
	if cost <= 0 {
		next = e.now.Add(pollGap(q))
	}
	w := p.singleWaiter()
	w.poll, w.until, w.cost, w.issued = q, until, cost, cost > 0
	e.schedule(next, w, reasonTimer)
	p.park("poll")
	// The scratch waiter goes back to plain parks without the Poller. (A
	// process killed in the park keeps it, in an engine that steps no more.)
	w.poll = nil
	return w.hit
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
	q := w.poll
	e.asking = w.p
	if !w.issued { // a tick
		cost, take := q.Tick()
		if w.cost = cost; take || cost > 0 {
			e.asking = nil
			return !take
		}
	}
	w.hit = q.Hit()
	e.asking = nil
	return !w.hit
}

// repoll is what the polling process would do at the wake of w that step has
// just popped, counted and set the clock to, and that answers says it only
// passes through: Sleep for the cost of the poll it issues at a tick, ask Gap
// and Sleep after a miss. The next wake is queued as Sleep would queue it.
// But while it would come strictly before every queued event no process can
// run before it, so each question asked since the pop still has the answer it
// had: the wake is counted, numbered and the clock moved as if delivered, and
// the heap never sees it (skips). A question not yet asked since the pop is
// asked first. The first wake at or after the head, one the process must see
// (the until tick, a tick it takes, a hit) and one a cut-off would refuse are
// queued for real, behind everything queued, as they would have been.
//
//hot:path
func (e *Engine) repoll(w *waiter, maxEvents uint64) {
	q, cost, issued := w.poll, w.cost, w.issued
	// What the popped wake asked: Tick at a tick, Hit at the end of a poll. A
	// free poll's wakes are all ticks, and a free tick asked Hit too.
	ticked, hitAsked := !issued, issued
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
			cost = w.cost
			ticked = ticked || !issued
			hitAsked = hitAsked || issued || cost <= 0
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

// Backoff is the gap schedule of a poller that may sit idle for long: Base
// between polls, doubled after every miss once the poller has been idle for
// After, up to Max; the next hit puts it back to Base. So a quiet poller does
// not flood the event queue, while back-to-back work always sees Base.
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
		b.gap = 2 * g
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
