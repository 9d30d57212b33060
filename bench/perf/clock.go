package main

import "time"

// processStart anchors hostNow.
//
//lint:allow walltime the benchmark measures the simulator's own speed on the host clock; this read never feeds simulated time.
var processStart = time.Now()

// hostNow is the benchmark's only host-clock read: nanoseconds since the
// process started, on Go's monotonic clock. Every wall metric and every
// driver-side span goes through it, so the walltime analyzer has exactly one
// sanctioned site to audit in this package.
func hostNow() int64 {
	//lint:allow walltime the one sanctioned host-clock read of the wall-clock ledger; see processStart.
	return time.Since(processStart).Nanoseconds()
}
