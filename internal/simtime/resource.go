package simtime

// Resource is a FIFO-served exclusive resource, used to model hardware units
// that serve one request at a time, such as a PCIe link direction or a DMA
// engine. Waiters are granted the resource strictly in arrival order, which
// keeps simulations deterministic and models store-and-forward occupancy.
type Resource struct {
	eng   *Engine
	name  string
	label string // park label, prebuilt so a contended Acquire does not concatenate
	busy  bool
	queue fifo[*waiter]

	// Stats.
	acquisitions uint64
	busyTime     Duration
	lastAcquire  Time
}

// NewResource returns an idle resource bound to the engine.
func NewResource(e *Engine, name string) *Resource {
	return &Resource{eng: e, name: name, label: "resource " + name}
}

// Busy reports whether the resource is currently held.
func (r *Resource) Busy() bool { return r.busy }

// Acquisitions returns how many times the resource has been acquired.
func (r *Resource) Acquisitions() uint64 { return r.acquisitions }

// BusyTime returns the cumulative simulated time the resource was held.
func (r *Resource) BusyTime() Duration { return r.busyTime }

// Acquire blocks p until it holds the resource. The waiter is referenced
// from one place at a time — the wait list until Release transfers it to the
// engine's event heap — so the process's scratch waiter is safe here.
func (r *Resource) Acquire(p *Proc) {
	if !r.busy && r.queue.len() == 0 {
		r.busy = true
		r.acquisitions++
		r.lastAcquire = p.Now()
		return
	}
	r.queue.push(p.singleWaiter())
	p.park(r.label)
	// Release transferred ownership to us before waking us.
	r.acquisitions++
	r.lastAcquire = p.Now()
}

// Release hands the resource to the next waiter, or marks it idle.
func (r *Resource) Release(p *Proc) {
	if !r.busy {
		panic("simtime: Release of idle resource " + r.name)
	}
	r.busyTime += p.Now().Sub(r.lastAcquire)
	for r.queue.len() > 0 {
		if w := r.queue.take(); !w.woken {
			// Ownership transfers directly; busy stays true.
			r.eng.schedule(r.eng.now, w, reasonEvent)
			return
		}
	}
	r.busy = false
}

// Use acquires the resource, holds it for d of simulated time, and releases
// it. This is the common pattern for serialization delays.
func (r *Resource) Use(p *Proc, d Duration) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release(p)
}
