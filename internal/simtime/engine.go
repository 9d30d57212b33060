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

// ErrDeadline is returned by Run when simulated time passes the configured
// deadline.
var ErrDeadline = errors.New("simtime: simulated-time deadline exceeded")

// wake reasons delivered to a parked process.
const (
	reasonTimer = iota // Sleep expiry or wait timeout
	reasonEvent        // an Event fired / a Queue item arrived / a Resource was granted
	reasonKill         // engine shutdown; park panics with errKilled
)

// waiter represents one parked process. Wake events reference waiters rather
// than processes so that a stale wake (e.g. a timeout racing an Event fire)
// is skipped instead of waking an unrelated, later wait of the same process.
type waiter struct {
	p     *Proc
	woken bool
	// A waiter parked in Proc.Poll: the wake is a tick of its loop or, when
	// issued, the end of a poll that takes cost; step answers it itself while
	// the process only passes through (Engine.answers). hit is what Poll
	// returns once one is delivered.
	poll   Poller
	until  Time
	cost   Duration
	issued bool
	hit    bool
	// The memo of poll's answers: Tick's (cost, take) and Hit's found, each
	// with the run it was asked in (Engine.runs); 0 is none. Until a process
	// runs again, an answer stands (Engine.tick, Engine.hit).
	ticked, hitAsked uint64
	take, found      bool
}

type event struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among simultaneous events
	w   *waiter
	rsn int
}

// eventQueue is a binary min-heap ordered by (at, seq). It is a concrete
// heap rather than a container/heap adapter: the adapter's `any` interface
// boxes every pushed event onto the Go heap, which dominated the simulator's
// allocation profile. Pop order is unaffected by the change — (at, seq) is a
// strict total order (seq is unique), so any correct heap pops the same
// sequence.
type eventQueue []event

func (q eventQueue) less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q *eventQueue) push(ev event) {
	*q = append(*q, ev) //lint:allow hotalloc amortized growth of the engine's event heap
	h := *q
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *eventQueue) pop() event {
	h := *q
	n := len(h) - 1
	ev := h[0]
	h[0] = h[n]
	h[n] = event{} // release the waiter reference
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

// down sifts entry i down to its place.
func (q eventQueue) down(i int) {
	for n := len(q); ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q.less(r, c) {
			c = r
		}
		if !q.less(c, i) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
}

// heapify restores the heap order after entries were changed in place.
func (q eventQueue) heapify() {
	for i := len(q)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}

// Engine is a deterministic discrete-event scheduler. Every process is a
// coroutine (iter.Pull) that Run resumes in-thread and that hands control
// back from Proc.park, so exactly one of them runs at a time and no switch
// goes through the Go scheduler. It is not safe for concurrent use: all
// interaction happens either from the goroutine calling Run or from the
// single currently-running Proc.
type Engine struct {
	now    Time
	eq     eventQueue
	seq    uint64
	stop   bool
	failed error // the first process panic; ends Run
	events uint64
	polls  uint64 // events that were poll ticks step answered itself
	asks   uint64 // Tick and Hit questions put to a Poller
	maxq   int    // event-queue high-water mark (MaxQueueLen)
	// runs numbers the runs of processes: it moves on Run entry and each time
	// step hands a process control, so a Poller's answer asked in the current
	// run still stands.
	runs uint64
	// The process whose Poller is being asked Tick or Hit, for park's guard.
	asking *Proc
	// ahead's scratch: the parked polls it answers at once; and how many
	// wakes it answered.
	lanes      [maxLanes]lane
	aheadWakes uint64

	// MaxEvents bounds the total number of processed wake events; zero means
	// the default of 1<<40. Exceeding it aborts Run with ErrEventLimit.
	MaxEvents uint64
	// Deadline bounds simulated time; zero means no deadline. An event
	// scheduled past the deadline aborts Run with ErrDeadline.
	Deadline Time

	// The unfinished procs in spawn order, linked through Proc.prev/next so
	// that a finishing proc unlinks itself in O(1) and a run that spawns
	// short-lived procs forever holds on to none of them. Deadlock
	// diagnostics and Shutdown walk the list.
	first, last *Proc
}

// NewEngine returns an empty simulation at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Events returns the number of wake events processed so far.
func (e *Engine) Events() uint64 { return e.events }

// QueueLen returns the number of pending wake events right now.
func (e *Engine) QueueLen() int { return len(e.eq) }

// MaxQueueLen returns the event-queue high-water mark: the largest number
// of wake events that were ever pending at once.
func (e *Engine) MaxQueueLen() int { return e.maxq }

// Spawn registers fn as a new process named name. The process starts running
// at the current simulated time, after already-pending events at that time.
// Spawn may be called before Run or from within a running process.
//
// A panic in fn ends Run with an error naming the process. runtime.Goexit
// in fn (t.Fatal, t.Skip) runs fn's deferred calls and then terminates the
// goroutine that called Run the same way: its deferred calls run and Run
// does not return.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, blockedOn: "spawn", prev: e.last}
	if e.last == nil {
		e.first = p
	} else {
		e.last.next = p
	}
	e.last = p
	p.resume, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer p.finish()
		if p.reason != reasonKill { // else: shut down before its first wake
			fn(p)
		}
	})
	e.schedule(e.now, p.singleWaiter(), reasonEvent)
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

// schedule enqueues a wake for w at time at.
//
//hot:path
func (e *Engine) schedule(at Time, w *waiter, rsn int) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.eq.push(event{at: at, seq: e.seq, w: w, rsn: rsn})
	if len(e.eq) > e.maxq {
		e.maxq = len(e.eq)
	}
}

// Stop requests that Run return after the calling process next parks or
// finishes. Remaining processes stay parked and are reclaimed by Shutdown.
func (e *Engine) Stop() { e.stop = true }

// Run executes the simulation until all processes finish, a process calls
// Stop, the event budget or deadline is exceeded, or a deadlock is detected.
func (e *Engine) Run() error {
	e.runs++ // the caller may have changed what a parked poll reads
	for {
		p, err := e.step(nil)
		if p == nil {
			return err
		}
		p.resume()
	}
}

// step is the one place that decides what the engine does next. It discards
// stale wakes and then takes the earliest wake event: pops it, counts it and
// advances the clock. What happens to the event is one of three things.
//
// A wake is delivered: step stores the reason in the process, starts a new
// run (Engine.runs: what a parked poll reads may change now) and returns the
// process, which the caller must let run. Run calls step(nil) and, when step
// returns no process, returns err: nil after Stop or once every process has
// finished, otherwise the panic, deadlock, deadline or event-budget error.
//
// A wake for the caller is taken in place: a parking process calls step(p) to
// ask whether the next event is its own (a poller ticking beside longer
// sleeps); if so the process just keeps running at the new time, with no
// switch. This cannot reorder delivery: it is the same event Run would
// deliver next, to the same process, and nothing else runs in between.
//
// A poll wake the process only passes through is answered here: the event of
// a process parked in Proc.Poll — a tick before its until on which the poll
// is issued, a poll that misses — wakes nobody. Popped, counted and the clock
// advanced like any other, it goes back on the heap the poll's cost or a Gap
// later (repoll) — the operations the polling process would have performed
// had it been woken to look for itself, in the same order, with nothing able
// to run in between. It is engine work whoever's stack step is on, so a
// process parking beside a poller no longer yields for the poller's misses.
//
// Whatever step(p) cannot settle without switching — another process's wake,
// Stop, the deadline, the event budget, an empty heap — it leaves untouched
// and returns nil, so p yields and Run's step(nil) reaches the verdict.
//
//hot:path
func (e *Engine) step(self *Proc) (*Proc, error) {
	for {
		if e.failed != nil || e.stop || e.first == nil {
			return nil, e.failed
		}
		if len(e.eq) == 0 {
			if self != nil {
				return nil, nil
			}
			return nil, e.deadlockError()
		}
		head := &e.eq[0]
		w := head.w
		if w.woken {
			e.eq.pop() // stale wake (e.g. timeout lost to an Event fire)
			continue
		}
		maxEvents := e.MaxEvents
		if maxEvents == 0 {
			maxEvents = 1 << 40
		}
		late := e.Deadline != 0 && head.at > e.Deadline
		spent := e.events >= maxEvents
		answer := w.poll != nil && !late && !spent && e.answers(w, head.at)
		if self != nil && !answer && (w.p != self || late || spent) {
			return nil, nil
		}
		ev := e.eq.pop()
		if late {
			return nil, deadlineError(ev.at)
		}
		e.events++
		if spent {
			return nil, limitError(maxEvents)
		}
		e.now = ev.at
		if answer {
			e.repoll(w, maxEvents)
			continue
		}
		w.woken = true
		w.p.reason = ev.rsn
		e.runs++
		return w.p, nil
	}
}

// Shutdown kills all unfinished processes in spawn order: each is resumed
// with reasonKill, unwinds through its deferred calls, and its coroutine
// exits; one that never started never runs its body. It must be called after
// Run returns, never concurrently with it.
func (e *Engine) Shutdown() {
	e.stop = true  // a park during the unwinding must not advance the simulation
	e.asking = nil // a question that panicked left it set; the unwinding may park
	for e.first != nil {
		// A deferred call that parks yields back here with the process
		// still first in line; the next round kills that park too.
		p := e.first
		p.reason = reasonKill
		p.resume()
	}
}

// deadlineError terminates the run; it allocates once.
//
//hot:cold
func deadlineError(at Time) error {
	return fmt.Errorf("%w (at %v)", ErrDeadline, at)
}

// limitError terminates the run; it allocates once.
//
//hot:cold
func limitError(maxEvents uint64) error {
	return fmt.Errorf("%w (%d events)", ErrEventLimit, maxEvents)
}

// deadlockError runs when no process is running, so every live one is parked.
//
//hot:cold
func (e *Engine) deadlockError() error {
	var stuck []string
	for p := e.first; p != nil; p = p.next {
		stuck = append(stuck, p.name+" ("+p.blockedOn+")")
	}
	sort.Strings(stuck)
	return fmt.Errorf("%w: at t=%v: %v", ErrDeadlock, e.now, stuck)
}
