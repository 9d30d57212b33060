package simtime

import (
	"fmt"
	"math"
)

// Poller is the condition, the cadence and the cost of a poll loop that
// Proc.Poll runs as one park. A tick of the loop asks up to two questions, at
// up to two instants: at the tick, Tick — does the process take this tick
// itself, and if not, how long does the poll it issues take? — and, that
// cost later, Hit — did the poll find what the process waits for? A free poll
// (cost zero) asks both at the tick.
//
// Tick and Hit are pure reads of simulated state: state only a running
// process changes, never anything Gap changes, and for Tick the time of the
// tick, which it is told and whose effect it declares. That is what lets the
// engine ask each of them once per run of a process and keep the answer until
// the next one, or until Tick's answer lapses (Engine.tick, Engine.hit). It
// asks them on whatever stack it happens to be running, so they must not park
// and must change nothing a process can observe.
type Poller interface {
	// Tick is asked at every tick, at its time at. take reports that the
	// process must take the tick itself: the poll it would issue could do
	// more than take cost and read (pass a fault site, record a span), or it
	// has something else to look at. Otherwise cost is the simulated time the
	// poll takes, zero for a poll that is free. The answer is every later
	// tick's too until a process runs, or, if lapse is not zero, until the
	// first tick at or after lapse: an answer that the clock alone changes
	// (a fault window that opens) says when.
	Tick(at Time) (cost Duration, take bool, lapse Time)
	// Hit reports whether the poll succeeds: at the tick for a free poll, at
	// the end of its cost otherwise.
	Hit() bool
	// Gap returns the time from a poll that missed to the next tick. It is
	// called exactly once per missed poll, so it may advance back-off state
	// (and count the poll). It reads nothing a process changes, and changes
	// nothing that another Poller's Gap, or any Tick or Hit, reads.
	Gap() Duration
	// Misses accounts for n missed polls at once, as n calls of Gap would,
	// and returns the gap the next miss gets and how many more misses in a
	// row get that same gap (math.MaxInt64: all of them). n is never more
	// than the previous call's count, so each of the n would have returned
	// the same gap; Misses(0) only asks. The engine uses it to answer a
	// quiet poller's misses up to the next event that can run a process in
	// one step (Engine.ahead).
	Misses(n int64) (gap Duration, steady int64)
}

// Free completes the Poller of a free poll that only waits for Hit: its ticks
// cost nothing and are all the engine's.
type Free struct{}

// Tick implements Poller.
//
//hot:path
func (Free) Tick(Time) (Duration, bool, Time) { return 0, false, 0 }

// Poll is
//
//	for {
//		cost, take, _ := q.Tick(p.Now())
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
	e.tick(w, e.now)
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

// tick puts Tick to w's Poller for the tick at, unless it was asked in this
// run already and its answer has not lapsed, and leaves the answer in w.cost,
// w.take and w.lapse.
//
//hot:path
func (e *Engine) tick(w *waiter, at Time) {
	if at >= w.tickStands(e.runs) {
		e.asks++
		w.cost, w.take, w.lapse = w.poll.Tick(at)
		w.ticked = e.runs
	}
}

// tickStands returns the time from which w's memo no longer holds Tick's
// answer for run: its lapse, or, for an answer that does not lapse, the end of
// time; 0 for none asked in run.
func (w *waiter) tickStands(run uint64) Time {
	switch {
	case w.ticked != run:
		return 0
	case w.lapse == 0:
		return math.MaxInt64
	}
	return w.lapse
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
		if e.tick(w, at); w.take || w.cost > 0 {
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
// run before it, so every answer stands, Tick's until it lapses: the wake is
// counted, numbered and the clock moved as if delivered, and the heap never
// sees it (skips). A question not asked in this run yet, or a Tick answer
// that has lapsed, is asked first; one the memo holds from this run passed a
// wake of w through already — an answer on which the engine delivers one is
// followed by that delivery, which ends the run — so it passes this one too.
// The first wake at or after the head, one the process must see (the until
// tick, a tick it takes, a hit) and one a cut-off would refuse are queued for
// real, behind everything queued, as they would have been — unless the head
// is another parked poll's wake the engine answers too: then ahead answers
// every such poll's wakes up to the next event that can run a process.
//
//hot:path
func (e *Engine) repoll(w *waiter, maxEvents uint64) {
	q, cost, issued := w.poll, w.cost, w.issued
	// Until when the memo holds Tick's answer from this run, and whether it
	// holds Hit's, kept in registers for the skipping: no process runs in
	// here. A free tick that asked Tick asked Hit too.
	run := e.runs
	ticked, hitAsked := w.tickStands(run), w.hitAsked == run
	for next := e.now; ; {
		e.polls++
		if issued = !issued && cost > 0; issued {
			next = next.Add(cost) // the poll the tick issued ends
		} else {
			next = next.Add(pollGap(q)) // the next tick
		}
		w.issued = issued
		if !e.skips(w, next, !issued, maxEvents) {
			if !e.ahead(w, next, maxEvents) {
				e.schedule(next, w, reasonTimer)
			}
			return
		}
		if (issued && !hitAsked) || (!issued && next >= ticked) {
			if !e.answers(w, next) {
				e.schedule(next, w, reasonTimer)
				return
			}
			cost, ticked, hitAsked = w.cost, w.tickStands(run), w.hitAsked == run
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

// maxLanes bounds how many parked polls ahead answers at once; beside more,
// their wakes go one at a time, and ahead returns before asking any Poller.
// The most bench/perf's workloads park at once is 9: eight VE serve loops and
// the host's wait.
const maxLanes = 16

// passes reports whether w's memo holds, from this run, the answers its next
// wake, at at, needs, and whether they pass it on: a tick the process does not
// take, with Tick's answer not lapsed (and, for a free poll, a miss at it),
// the miss at the end of a poll that costs. Then it holds the other
// question's passing answer from this run too: a memo from this run came from
// a wake answered in this run, and the wakes of a poll alternate between the
// two questions. The until tick and the tick where Tick's answer lapses are
// plan's to find.
func (w *waiter) passes(run uint64, at Time) bool {
	if w.issued {
		return w.hitAsked == run && !w.found
	}
	return at < w.tickStands(run) && !w.take && (w.cost > 0 || (w.hitAsked == run && !w.found))
}

// A lane is one parked poll as Engine.ahead sees it: its next wake, wake 0,
// and the pattern its wakes follow while every answer stands and the gap is
// constant. Wake m of a free poll (cost 0) is the tick at at + m·gap; a poll
// that costs alternates between ticks and the ends of the polls they issue,
// the even wakes of wake 0's kind.
type lane struct {
	w         *waiter
	heap      int // wake 0's index in the event heap; -1: w's, not queued yet
	at        Time
	seq       uint64
	end       bool // wake 0 ends a poll that costs
	cost, gap Duration
	// stop is the first wake ahead must not answer (math.MaxInt64: none), n
	// how many it answers.
	stop, n int64
}

// plan fills in l's pattern from its waiter's memo and Poller, and its stop:
// the first wake that delivers (a hit, a tick the process takes, the until
// tick), that asks a question this run has not answered or whose answer has
// lapsed, or whose miss gets another gap. It reports whether there is such a
// wake.
//
//hot:path
func (l *lane) plan(run uint64) bool {
	w := l.w
	l.end, l.cost, l.stop = w.issued, w.cost, math.MaxInt64
	if !w.passes(run, l.at) {
		l.stop = 0
		return true
	}
	g, steady := w.poll.Misses(0)
	if l.gap = g; g <= 0 {
		l.stop = 0
		return true
	}
	if steady < math.MaxInt64/4 { // the miss after steady ones gets another gap
		switch {
		case l.cost == 0:
			l.stop = min(l.stop, steady)
		case l.end:
			l.stop = min(l.stop, 2*steady)
		default:
			l.stop = min(l.stop, 2*steady+1)
		}
	}
	for _, u := range [...]Time{w.until, w.lapse} {
		if u != 0 {
			l.stop = min(l.stop, l.tickFrom(u))
		}
	}
	return l.stop != math.MaxInt64
}

// tickFrom returns the index of l's first tick at or after u.
func (l *lane) tickFrom(u Time) int64 {
	switch {
	case l.cost == 0:
		return ceilDiv(u.Sub(l.at), l.gap)
	case l.end:
		return 2*ceilDiv(u.Sub(l.at.Add(l.gap)), l.period()) + 1
	}
	return 2 * ceilDiv(u.Sub(l.at), l.period())
}

// period is the time from a wake to the next of its kind, and first the time
// from an even wake to the odd one after it.
func (l *lane) period() Duration { return l.cost + l.gap }

func (l *lane) first() Duration {
	if l.end {
		return l.gap
	}
	return l.cost
}

// time returns the time of wake m.
func (l *lane) time(m int64) Time {
	if l.cost == 0 {
		return l.at.Add(Duration(m) * l.gap)
	}
	t := l.at.Add(Duration(m/2) * l.period())
	if m%2 == 1 {
		t = t.Add(l.first())
	}
	return t
}

// before returns how many of l's wakes come strictly before t.
func (l *lane) before(t Time) int64 {
	if l.cost == 0 {
		return ceilDiv(t.Sub(l.at), l.gap)
	}
	return ceilDiv(t.Sub(l.at), l.period()) + ceilDiv(t.Sub(l.at.Add(l.first())), l.period())
}

// ends reports whether wake m ends a poll that costs, and misses how many of
// the first n wakes are polls that missed: every wake of a free poll, the
// ends of one that costs.
func (l *lane) ends(m int64) bool { return l.cost > 0 && l.end == (m%2 == 0) }

func (l *lane) misses(n int64) int64 {
	switch {
	case l.cost == 0:
		return n
	case l.end:
		return (n + 1) / 2
	}
	return n / 2
}

// after reports whether l's last answered wake comes after o's in (at, seq)
// order, the order in which their successors are pushed. Times decide; at
// one time seq does, and a wake's seq is its predecessor's place in that
// order. So the comparison walks back through the ties until one side reaches
// its queued wake 0 (its own seq, below every one handed out since) or the
// times part. Two ties in a row repeat for good, as each lane steps back by
// its gap and its cost in turn, so the walk then jumps to the first of the two
// to reach wake 0.
func (l *lane) after(o *lane) bool {
	m, k := l.n-1, o.n-1
	if a, b := l.time(m), o.time(k); a != b {
		return a > b
	}
	for ties := 0; ; ties++ {
		if k == 0 || m == 0 {
			if k == 0 && m == 0 {
				return o.seq < l.seq
			}
			return k == 0
		}
		if a, b := o.time(k-1), l.time(m-1); a != b {
			return a < b
		}
		k, m = k-1, m-1
		if ties == 1 {
			d := min(k, m)
			k, m = k-d, m-d
		}
	}
}

// ceilDiv is ⌈d/p⌉ for p > 0, and 0 for d ≤ 0.
func ceilDiv(d, p Duration) int64 {
	if d <= 0 {
		return 0
	}
	return int64((d-1)/p) + 1
}

// ahead answers, in one step, the wakes of every parked poll up to the
// horizon: the first of the earliest queued wake that is not a poll's, any
// poll's first wake that delivers or that asks what this run has not answered,
// or whose Tick answer has lapsed by then (lane.plan), and Deadline. w's next
// wake, at next, is one of them: repoll calls ahead where it would queue it
// behind the head of the heap, and ahead only goes on when that head is a poll
// whose wake the engine answers too.
//
// Until the horizon no process can run and no Tick answer lapses, so every
// answer stands and each lane follows its pattern: its wakes are counted arithmetically, its misses
// accounted in one Poller.Misses. Events, PollTicks, seq and the clock move
// by the total, as one wake at a time would have moved them. The lanes' first
// wakes at or past the horizon get the last seqs handed out, in the order of
// their predecessors (lane.after): above every seq still queued and below
// every one to come, as one at a time would have numbered them. Only wakes
// strictly before the horizon are answered: one at the horizon's very time,
// which may come before or after the wake that ends it, is left to step like
// any other. ahead leaves w to schedule, and changes nothing, where the event
// budget would run out before the horizon, beside more than maxLanes parked
// polls, and where there is nothing to answer.
//
//hot:path
func (e *Engine) ahead(w *waiter, next Time, maxEvents uint64) bool {
	run := e.runs
	if len(e.eq) == 0 || e.eq[0].w.poll == nil || e.eq[0].w.woken || !e.eq[0].w.passes(run, e.eq[0].at) {
		return false
	}
	base := e.seq + 1 // w's seq, as schedule would number it
	lanes := &e.lanes
	lanes[0] = lane{w: w, heap: -1, at: next, seq: base}
	horizon := Time(math.MaxInt64)
	if e.Deadline != 0 {
		horizon = e.Deadline + 1
	}
	n := 1
	for i := range e.eq {
		ev := &e.eq[i]
		switch {
		case ev.w.woken: // stale: popped without a trace
		case ev.w.poll == nil:
			horizon = min(horizon, ev.at)
		case n == maxLanes:
			return false
		default:
			lanes[n] = lane{w: ev.w, heap: i, at: ev.at, seq: ev.seq}
			n++
		}
	}
	for i := range n {
		if l := &lanes[i]; l.plan(run) {
			horizon = min(horizon, l.time(l.stop))
		}
	}
	if horizon == math.MaxInt64 {
		return false
	}
	var total int64
	for i := range n {
		l := &lanes[i]
		l.n = l.before(horizon)
		total += l.n
	}
	if total == 0 || uint64(total) > maxEvents-e.events {
		return false
	}
	// The lanes that moved, in the order of their last answered wakes.
	var order [maxLanes]*lane
	k := 0
	for i := range n {
		l := &lanes[i]
		if l.n == 0 {
			continue
		}
		j := k
		for ; j > 0 && order[j-1].after(l); j-- {
			order[j] = order[j-1]
		}
		order[j] = l
		k++
	}
	e.seq = base + uint64(total)
	for j, l := range order[:k] {
		e.now = max(e.now, l.time(l.n-1))
		l.seq = e.seq - uint64(k-1-j)
		l.w.poll.Misses(l.misses(l.n))
		l.w.issued = l.ends(l.n)
		if l.heap >= 0 {
			e.eq[l.heap].at, e.eq[l.heap].seq = l.time(l.n), l.seq
		}
	}
	e.eq.heapify()
	e.eq.push(event{at: lanes[0].time(lanes[0].n), seq: lanes[0].seq, w: w, rsn: reasonTimer})
	e.maxq = max(e.maxq, len(e.eq))
	e.events += uint64(total)
	e.polls += uint64(total)
	e.aheadWakes += uint64(total)
	return true
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

// Misses implements Poller: the gap stays constant until the miss that
// doubles it, and for good once it has reached Max.
//
//hot:path
func (b *Backoff) Misses(n int64) (Duration, int64) {
	g := b.Current()
	if n > 0 {
		b.idle += Duration(n) * (g + b.PollCost)
		if b.idle >= b.After && g < b.Max {
			b.gap = min(2*g, b.Max)
			g = b.gap
		}
	}
	step := g + b.PollCost
	switch {
	case g >= b.Max:
		return g, math.MaxInt64
	case b.idle >= b.After || step <= 0:
		return g, 1
	}
	return g, int64((b.After - b.idle + step - 1) / step)
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
