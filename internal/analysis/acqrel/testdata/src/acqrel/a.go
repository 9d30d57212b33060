// Fixture for the acqrel analyzer, exercising the real simtime
// Semaphore pairs.
package acqrel

import "hamoffload/internal/simtime"

func work() error { return nil }

// --- accepted idioms ---

func balanced(sem *simtime.Semaphore, p *simtime.Proc) {
	sem.Acquire(p, 1)
	_ = work()
	sem.Release(1)
}

func deferredRelease(sem *simtime.Semaphore, p *simtime.Proc) error {
	sem.Acquire(p, 1)
	defer sem.Release(1)
	if err := work(); err != nil {
		return err
	}
	return nil
}

func releasedOnEveryBranch(sem *simtime.Semaphore, p *simtime.Proc) error {
	sem.Acquire(p, 1)
	if err := work(); err != nil {
		sem.Release(1)
		return err
	}
	sem.Release(1)
	return nil
}

// A one-unit semaphore made in place, as the PCIe and DMA models make theirs.
func oneUnitBalanced(eng *simtime.Engine, p *simtime.Proc) {
	r := simtime.NewSemaphore(eng, "link", 1)
	r.Acquire(p, 1)
	_ = work()
	r.Release(1)
}

// A path ending in panic is teardown, not a leak.
func panicPath(sem *simtime.Semaphore, p *simtime.Proc) {
	sem.Acquire(p, 1)
	if err := work(); err != nil {
		panic(err)
	}
	sem.Release(1)
}

// Distinct receivers are tracked independently.
func twoSemaphores(a, b *simtime.Semaphore, p *simtime.Proc) {
	a.Acquire(p, 1)
	b.Acquire(p, 1)
	b.Release(1)
	a.Release(1)
}

// --- violations ---

// The early error return leaks the unit.
func leakOnEarlyReturn(sem *simtime.Semaphore, p *simtime.Proc) error {
	sem.Acquire(p, 1) // want `sem\.Acquire is not matched by a sem\.Release on every path`
	if err := work(); err != nil {
		return err
	}
	sem.Release(1)
	return nil
}

// A deferred Release covers only the returns after the defer.
func leakBeforeDefer(sem *simtime.Semaphore, p *simtime.Proc) error {
	sem.Acquire(p, 1) // want `sem\.Acquire is not matched by a sem\.Release on every path`
	if err := work(); err != nil {
		return err
	}
	defer sem.Release(1)
	return nil
}

// No release anywhere.
func leakAlways(r *simtime.Semaphore, p *simtime.Proc) {
	r.Acquire(p, 1) // want `r\.Acquire is not matched by a r\.Release on every path`
	_ = work()
}

// Releasing the wrong semaphore does not discharge the obligation.
func leakWrongReceiver(a, b *simtime.Semaphore, p *simtime.Proc) {
	a.Acquire(p, 1) // want `a\.Acquire is not matched by a a\.Release on every path`
	b.Acquire(p, 1)
	b.Release(1)
	b.Release(1)
}

// Suppression works as everywhere else.
func suppressed(sem *simtime.Semaphore, p *simtime.Proc) {
	sem.Acquire(p, 1) //lint:allow acqrel fixture: proves suppression
	_ = work()
}
