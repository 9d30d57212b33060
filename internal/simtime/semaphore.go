package simtime

// Semaphore is a FIFO-served counting resource, used to model hardware
// units: one unit for a unit that serves one request at a time, such as a
// PCIe link direction or a DMA engine, more for pooled units such as the
// eight cores of a Vector Engine. Acquirers take a number of units and block
// until that many are free, strictly in arrival order (no overtaking, so
// simulations stay deterministic and small requests cannot starve large
// ones).
type Semaphore struct {
	eng   *Engine
	name  string
	label string // park label, prebuilt so a contended Acquire does not concatenate
	total int
	free  int
	queue fifo[semWaiter]
}

type semWaiter struct {
	p *Proc
	n int
}

// NewSemaphore returns a semaphore with the given number of units.
func NewSemaphore(e *Engine, name string, units int) *Semaphore {
	if units <= 0 {
		panic("simtime: semaphore " + name + " needs at least one unit")
	}
	return &Semaphore{eng: e, name: name, label: "semaphore " + name, total: units, free: units}
}

// Total returns the unit count.
func (s *Semaphore) Total() int { return s.total }

// Acquire pays p's debt and blocks p until n units are free, then takes them.
// Requests for more than the total are clamped (they would never complete).
func (s *Semaphore) Acquire(p *Proc, n int) int {
	p.Pay()
	if n < 1 {
		n = 1
	}
	if n > s.total {
		n = s.total
	}
	// FIFO: even if units are free, queued earlier requests go first.
	if s.queue.len() == 0 && s.free >= n {
		s.free -= n
		return n
	}
	s.queue.push(semWaiter{p: p, n: n})
	p.park(s.label)
	// grant() already deducted our units before waking us.
	return n
}

// Release returns n units, once paid, and grants queued requests in order.
func (s *Semaphore) Release(n int) {
	s.eng.pay()
	if n < 1 {
		return
	}
	s.free += n
	if s.free > s.total {
		panic("simtime: semaphore " + s.name + " over-released")
	}
	s.grant()
}

// grant wakes queued requests from the front while units suffice.
func (s *Semaphore) grant() {
	for s.queue.len() > 0 {
		head := s.queue.peek()
		if s.free < head.n {
			return
		}
		s.free -= head.n
		s.eng.schedule(s.eng.now, s.queue.take().p)
	}
}

// Use acquires n units, holds them for d, and releases them.
func (s *Semaphore) Use(p *Proc, n int, d Duration) {
	got := s.Acquire(p, n)
	p.Sleep(d)
	s.Release(got)
}
