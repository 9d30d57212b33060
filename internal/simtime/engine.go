package simtime

import (
	"errors"
	"fmt"
	"iter"
	"sort"
)

// ErrDeadlock is returned by Run when no process can make progress: the event
// queue is empty but parked processes remain.
var ErrDeadlock = errors.New("simtime: deadlock: no pending events but processes are parked")

// ErrEventLimit is returned by Run when the configured event budget is
// exhausted, which usually indicates a runaway polling loop.
var ErrEventLimit = errors.New("simtime: event limit exceeded")

// An event is one queued wake of a process. Events are ordered by time, then
// by seq. A plain wake's seq comes from a counter: simultaneous ones run in
// the order they were queued. A poll loop's wake at a tick or a poll's end —
// the loop's tick sleep, or a parked poll's wake standing for it — takes its
// process's key (Proc.key), which is above every counter seq: it runs after
// every plain wake of its instant, and two processes' in spawn order.
type event struct {
	at  Time
	seq uint64
	p   *Proc
}

// eventQueue is a binary min-heap ordered by (at, seq). It is a concrete heap
// rather than a container/heap adapter: the adapter's `any` interface boxes
// every pushed event onto the Go heap, which dominated the simulator's
// allocation profile. (at, seq) is a strict total order — a process has at
// most one wake queued — so any correct heap pops the same sequence.
type eventQueue []event

func (q eventQueue) less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q *eventQueue) push(ev event) {
	*q = append(*q, ev)
	q.up(len(*q) - 1)
}

// up sifts entry i up to its place.
func (q eventQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (q *eventQueue) pop() event {
	h := *q
	n := len(h) - 1
	ev := h[0]
	h[0] = h[n]
	h[n] = event{} // release the process reference
	h = h[:n]
	*q = h
	for i := 0; ; { // down(0), kept inline on the engine's hottest path
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h.less(r, c) {
			c = r
		}
		if !h.less(c, i) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return ev
}

// Engine is a deterministic discrete-event scheduler. Every process is a
// coroutine (iter.Pull) resumed in-thread, by Run or by a parking process
// that hands the next event to its owner itself (Proc.park), so exactly one
// of them runs at a time and no switch goes through the Go scheduler. It is
// not safe for concurrent use: all interaction happens either from the
// goroutine calling Run or from the single currently-running Proc.
type Engine struct {
	now    Time
	eq     eventQueue
	seq    uint64
	cur    uint64 // the largest seq delivered at now: a wake of now below it has run
	procs  uint64 // processes spawned, for Proc.key
	stop   bool
	failed error // the first process panic; ends Run
	events uint64
	maxq   int    // event-queue high-water mark (MaxQueueLen)
	yields uint64 // parks that switched (Yields)
	// Coroutine resumes, by Run and by parking processes: each is two
	// switches, into the process and back out when it parks or finishes.
	resumes uint64
	// The process whose Poller is being asked Tick or Hit, for park's guard.
	asking  *Proc
	running *Proc // the process that runs now (pay)
	eager   bool  // Proc.Charge sleeps at once: the oracle tests compare with

	// MaxEvents bounds the total number of processed wake events; zero means
	// the default of 1<<40. Exceeding it aborts Run with ErrEventLimit.
	MaxEvents uint64

	// The unfinished procs in spawn order, linked through Proc.prev/next so
	// that a finishing proc unlinks itself in O(1) and a run that spawns
	// short-lived procs forever holds on to none of them. Deadlock
	// diagnostics and Shutdown walk the list.
	first, last *Proc
}

// NewEngine returns an empty simulation at time zero.
func NewEngine() *Engine {
	// A parked poll is no event, so a run's heap stays short; room for one
	// keeps its growth out of the run.
	return &Engine{eq: make(eventQueue, 0, 64)}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Events returns the number of wake events processed so far.
func (e *Engine) Events() uint64 { return e.events }

// Yields returns the number of parks that did not take their own wake in
// place: each switched, to the next event's process or back to its resumer.
func (e *Engine) Yields() uint64 { return e.yields }

// MaxQueueLen returns the event-queue high-water mark: the largest number
// of wake events that were ever pending at once.
func (e *Engine) MaxQueueLen() int { return e.maxq }

// Spawn registers fn as a new process named name. The process starts running
// at the current simulated time, after the plain wakes already pending at
// that time and before its poll loops' tick wakes.
// Spawn may be called before Run or by a running process, which pays first.
//
// A panic in fn ends Run with an error naming the process. runtime.Goexit
// in fn (t.Fatal, t.Skip) runs fn's deferred calls and then terminates the
// goroutine that called Run the same way: its deferred calls run and Run
// does not return.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	e.pay()
	p := &Proc{eng: e, name: name, blockedOn: "spawn", prev: e.last, key: 1<<63 | e.procs}
	e.procs++
	if e.last == nil {
		e.first = p
	} else {
		e.last.next = p
	}
	e.last = p
	p.resume, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer p.finish()
		if !p.killed { // else: shut down before its first wake
			fn(p)
			p.Pay()
		}
	})
	e.schedule(e.now, p)
	return p
}

// finish runs deferred when a process body returns, panics or is killed: it
// takes the process off the live list and records the first panic for Run.
// The coroutine goes with it: iter.Pull's functions keep the body — and all
// it captured — reachable, and a *Proc may well outlive its engine's run.
func (p *Proc) finish() {
	e := p.eng
	if r := recover(); r != nil && r != errKilled && e.failed == nil {
		e.failed = fmt.Errorf("simtime: process %q panicked: %v", p.name, r)
	}
	p.resume, p.yield = resumeFinished, nil
	if p.prev == nil {
		e.first = p.next
	} else {
		p.prev.next = p.next
	}
	if p.next == nil {
		e.last = p.prev
	} else {
		p.next.prev = p.prev
	}
}

// resumeFinished is the resume of a finished process: what iter.Pull's next
// answers once the sequence has ended.
func resumeFinished() (struct{}, bool) { return struct{}{}, false }

// schedule enqueues a plain wake for p at time at.
func (e *Engine) schedule(at Time, p *Proc) {
	e.seq++
	e.push(event{at: at, seq: e.seq, p: p})
}

// push enqueues ev, at now if it is due earlier.
func (e *Engine) push(ev event) {
	ev.at = max(ev.at, e.now)
	e.eq.push(ev)
	e.maxq = max(e.maxq, len(e.eq))
}

// Stop requests that Run return after the calling process next parks or
// finishes. Remaining processes stay parked and are reclaimed by Shutdown.
func (e *Engine) Stop() { e.stop = true }

// pay makes the running process, if any, pay its debt.
func (e *Engine) pay() {
	if p := e.running; p != nil {
		p.Pay()
	}
}

// Run executes the simulation until all processes finish, a process calls
// Stop, the event budget is exceeded, or a deadlock is detected.
func (e *Engine) Run() error {
	for {
		p, err := e.step(nil)
		if p == nil {
			return err
		}
		e.resume(p)
	}
}

// resume runs p, which is not active, until it parks or finishes; the
// running process is p meanwhile and its resumer again afterwards.
func (e *Engine) resume(p *Proc) {
	prev := e.running
	e.running, p.active = p, true
	e.resumes++
	p.resume()
	e.running, p.active = prev, false
}

// step is the one place that decides what the engine does next. It takes the
// earliest wake event: pops it, counts it and advances the clock, and returns
// its process, which the caller must let run. Run calls step(nil) and, when
// step returns no process, returns err: nil after Stop or once every process
// has finished, otherwise the panic, deadlock or event-budget error.
//
// A parking process calls step(p) to hand the next event over itself. If the
// event is its own (a poller ticking beside longer sleeps) the process takes
// it in place and keeps running at the new time, with no switch; if it is a
// process's that is not active — not on the resume stack of Run and the
// processes it resumed, each parked inside step's caller — the parking
// process resumes that one directly, one switch where a yield to Run and
// Run's resume are two. Neither can reorder delivery: it is the same event
// Run would deliver next, to the same process, and nothing else runs in
// between. Whatever step(p) cannot settle that way — an active process's
// wake, Stop, the event budget, an empty heap — it leaves untouched and
// returns nil, so p yields to its resumer, which asks again, down to Run's
// step(nil), which reaches the verdict.
func (e *Engine) step(self *Proc) (*Proc, error) {
	if e.failed != nil || e.stop || e.first == nil {
		return nil, e.failed
	}
	if len(e.eq) == 0 {
		if self != nil {
			return nil, nil
		}
		return nil, e.idleError()
	}
	maxEvents := e.MaxEvents
	if maxEvents == 0 {
		maxEvents = 1 << 40
	}
	spent := e.events >= maxEvents
	if self != nil && (spent || e.eq[0].p.active && e.eq[0].p != self) {
		return nil, nil
	}
	ev := e.eq.pop()
	e.events++
	if spent {
		return nil, limitError(maxEvents)
	}
	if ev.at != e.now || ev.seq > e.cur {
		e.cur = ev.seq
	}
	e.now = ev.at
	return ev.p, nil
}

// Shutdown kills all unfinished processes in spawn order: each is resumed
// killed, unwinds through its deferred calls, and its coroutine
// exits; one that never started never runs its body. It must be called after
// Run returns, never concurrently with it.
func (e *Engine) Shutdown() {
	e.stop = true   // a park during the unwinding must not advance the simulation
	e.asking = nil  // a question that panicked left it set; the unwinding may park
	e.running = nil // a Goexit out of a process left it set
	for e.first != nil {
		// A deferred call that parks yields back here with the process
		// still first in line; the next round kills that park too.
		p := e.first
		p.killed = true
		p.resume()
	}
}

// limitError terminates the run; it allocates once.
func limitError(maxEvents uint64) error {
	return fmt.Errorf("%w (%d events)", ErrEventLimit, maxEvents)
}

// idleError runs when no process is running and no wake is queued, so every
// live one is parked for good: a deadlock.
func (e *Engine) idleError() error {
	var stuck []string
	for p := e.first; p != nil; p = p.next {
		stuck = append(stuck, p.name+" ("+p.blockedOn+")")
	}
	sort.Strings(stuck)
	return fmt.Errorf("%w: at t=%v: %v", ErrDeadlock, e.now, stuck)
}
