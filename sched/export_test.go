package sched

// InFlight returns the scheduler's per-node in-flight counts, parallel to
// its nodes, for the external tests to see every task settle.
func (s *Scheduler) InFlight() []int { return s.inflight }
