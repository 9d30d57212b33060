package simtime

import "fmt"

// Poller is the condition and the cadence of a poll loop whose poll is free:
// a load from simulated memory that takes no simulated time and passes no
// fault site. Proc.Poll runs such a loop as one park.
type Poller interface {
	// Hit reports whether the poll would succeed now. It is a pure read of
	// simulated state — state only a running process changes, never the
	// clock. The engine calls it any number of times, on whatever stack it
	// happens to be running, so Hit must not park and must change nothing a
	// process can observe.
	Hit() bool
	// Gap returns the time from a poll that missed to the next one. It is
	// called exactly once per missed poll, so it may advance back-off state.
	Gap() Duration
}

// Poll is
//
//	for !q.Hit() {
//		p.Sleep(q.Gap())
//	}
//
// except that it also returns at the first tick at or after until (zero: no
// such limit) without looking at Hit, and that the ticks which miss cost no
// switch to p: the next tick is a wake event like any Sleep's, in the same
// place in (at, seq) order, and Engine.step answers it on the spot — from Run
// or from whichever process is parking — while Hit says miss. Every wake
// time, Events, MaxQueueLen and the MaxEvents / Deadline cut-offs are those
// of the loop (DESIGN.md §8, "a poll loop is one park").
//
//hot:path
func (p *Proc) Poll(q Poller, until Time) {
	e := p.eng
	if e.hit(p, q) {
		return
	}
	w := p.singleWaiter()
	w.poll, w.until = q, until
	e.schedule(e.now.Add(pollGap(q)), w, reasonTimer)
	p.park("poll")
	// The scratch waiter goes back to plain parks without the Poller. (A
	// process killed in the park keeps it, in an engine that steps no more.)
	w.poll = nil
}

// pollGap is q's next gap as Sleep would take it.
func pollGap(q Poller) Duration {
	return max(q.Gap(), 0)
}

// hit evaluates q.Hit for p's poll, marking the engine so that a Hit which
// parks — it would run p's code on another process's stack — panics in park.
func (e *Engine) hit(p *Proc, q Poller) bool {
	e.hitting = p
	h := q.Hit()
	e.hitting = nil
	return h
}

//hot:cold
func parkedInHit(p *Proc) string {
	return fmt.Sprintf("simtime: the Poller of process %q parked inside Hit", p.name)
}

// repoll is what a poller does with a tick that missed — ask Gap, Sleep — for
// the tick of w that step has just popped, counted and set the clock to. The
// next tick is queued as Sleep would queue it. But while it would come
// strictly before every queued event no process can run before it, so nothing
// Hit reads can change and it is a certain miss: it is counted, numbered and
// the clock moved as if delivered, and the heap never sees it. The first tick
// at or after the head, the until tick and one a cut-off would refuse are
// queued for real, behind everything queued, as they would have been.
//
//hot:path
func (e *Engine) repoll(w *waiter, maxEvents uint64) {
	e.polls++
	next := e.now.Add(pollGap(w.poll))
	for (len(e.eq) == 0 || next < e.eq[0].at) &&
		(w.until == 0 || next < w.until) &&
		(e.Deadline == 0 || next <= e.Deadline) && e.events < maxEvents {
		e.seq++
		e.events++
		e.polls++
		e.now = next
		next = next.Add(pollGap(w.poll))
	}
	// No queued event was popped on the way, so this push sees the heap at
	// the length every skipped push would have seen: MaxQueueLen agrees.
	e.schedule(next, w, reasonTimer)
}

// PollTicks returns how many poll ticks the engine answered itself — ticks of
// Proc.Poll that missed, the ones that never reached the heap included. Each
// is also counted in Events.
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
