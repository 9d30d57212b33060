package simtime

import "errors"

// errKilled is panicked inside a parked process during Engine.Shutdown so the
// process unwinds through its deferred calls and its coroutine exits.
var errKilled = errors.New("simtime: process killed by shutdown")

// Proc is one simulated process. Proc methods must only be called by the
// process itself while it is the running process; the engine guarantees that
// at most one process runs at a time.
type Proc struct {
	eng        *Engine
	name       string
	resume     func() (struct{}, bool) // engine side of the coroutine: run until the next park
	yield      func(struct{}) bool     // process side: hand control back to the engine
	killed     bool                    // woken by Shutdown: park panics with errKilled
	blockedOn  string                  // human-readable label for deadlock diagnostics
	prev, next *Proc                   // the engine's list of unfinished processes
	key        uint64                  // 1<<63 | spawn index: the seq of its poll loop's tick wakes
	polling    pollPark                // the park of the Poll the process is in, if any
}

// Name returns the name the process was spawned with.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// park blocks until the one wake queued for this process is delivered. When
// that wake is the very next event the engine would deliver, the process
// takes it in place and never stops running; otherwise it switches back to
// Run.
func (p *Proc) park(label string) {
	if h := p.eng.asking; h != nil {
		panic(parkedInPoller(h))
	}
	if next, _ := p.eng.step(p); next == nil {
		p.blockedOn = label
		p.yield(struct{}{})
		if p.killed {
			panic(errKilled)
		}
	}
}

// Sleep suspends the process for d of simulated time. Non-positive durations
// still yield to the scheduler (other plain wakes pending at the current time
// run first).
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.eng.schedule(p.eng.now.Add(d), p)
	p.park("sleep")
}

// tickSleep is a poll loop's Sleep to its next tick or to the end of the poll
// it issued: the wake takes p's key, so it runs after every plain wake of its
// instant, and after the tick wakes of processes spawned before p.
func (p *Proc) tickSleep(d Duration) {
	p.eng.push(event{at: p.eng.now.Add(d), seq: p.key, p: p})
	p.park("sleep")
}

// Yield reschedules the process at the current time behind the plain wakes
// already pending, giving other runnable processes a chance to run.
func (p *Proc) Yield() { p.Sleep(0) }

// Spawn starts a child process; sugar for p.Engine().Spawn.
func (p *Proc) Spawn(name string, fn func(p *Proc)) *Proc {
	return p.eng.Spawn(name, fn)
}

// Event is a one-shot broadcast synchronization point: processes Wait until
// some process calls Fire, after which all current and future waiters pass
// immediately. The zero value is not usable; create Events with NewEvent.
type Event struct {
	eng     *Engine
	fired   bool
	waiters []*Proc
	watch   *Watch // notified on Fire (Notifies)
}

// NewEvent returns an unfired event bound to the engine.
func NewEvent(e *Engine) *Event { return &Event{eng: e} }

// Fired reports whether Fire has been called.
func (ev *Event) Fired() bool { return ev.fired }

// Notifies makes Fire notify w, for a poll that waits for the event on its
// own grid.
func (ev *Event) Notifies(w *Watch) { ev.watch = w }

// Fire releases all waiters at the current simulated time, and notifies the
// Watch set by Notifies. Firing an already fired event is a no-op.
func (ev *Event) Fire() {
	if ev.fired {
		return
	}
	ev.fired = true
	if ev.watch != nil {
		ev.watch.Notify()
	}
	for _, p := range ev.waiters {
		ev.eng.schedule(ev.eng.now, p)
	}
	ev.waiters = nil
}

// Wait blocks p until the event fires. Returns immediately if already fired.
func (ev *Event) Wait(p *Proc) {
	if ev.fired {
		return
	}
	ev.waiters = append(ev.waiters, p)
	p.park("event")
}
