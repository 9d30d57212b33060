package analysis

import "strings"

// Package-scoping policy: which analyzer runs where. Analyzers themselves
// are scope-free (so fixtures can exercise them under any package path);
// this table is the single place that says which parts of the tree live
// under which invariant regime.
//
// Two clock regimes exist in this repository. Simulation packages run on
// the DES picosecond clock and must be bit-for-bit deterministic; the
// wall-clock backends (tcpb over real sockets, mpib's proxy threads) deal in
// real time and real goroutines by design. The examples are demo programs,
// free to do either.

// deterministic is the determinism regime: every package whose behaviour
// and output must be a pure function of its inputs. walltime and
// determinism apply here, and only here, minus the WallClock packages.
var deterministic = []string{
	// The DES engine and every component whose time is simulated
	// picoseconds.
	"hamoffload/internal/simtime",
	"hamoffload/internal/backend", // minus the wall-clock backends, below
	"hamoffload/internal/dma",
	"hamoffload/internal/faults",
	"hamoffload/internal/veo",
	"hamoffload/internal/veos",
	"hamoffload/internal/pcie",
	"hamoffload/internal/vecore",
	"hamoffload/internal/vemem",
	"hamoffload/internal/hostmem",
	"hamoffload/internal/mem",
	"hamoffload/internal/ib",
	"hamoffload/internal/topology",
	// The free list every recycled record of the request path goes through.
	"hamoffload/internal/pool",
	// The offload runtime core multiplexes backends and must not fork OS
	// concurrency of its own; the HAM codec builds the sorted key tables.
	"hamoffload/internal/core",
	"hamoffload/internal/ham",
	// Placement must stay a pure function of DES-visible state. The prefix
	// also covers sched/health: breaker cooldowns and latency EWMAs live on
	// the caller-supplied simulated clock. Batch frames and placement feed
	// deterministic traces.
	"hamoffload/sched",
	// trace stamps spans, series, SLO windows and flows with whatever Clock
	// its caller hands it and reads no clock of its own; its exports are
	// diffed byte for byte.
	"hamoffload/internal/trace",
	// The serving gateway admits, quotas and steals on the simulated clock,
	// and its Report feeds the byte-compared serving experiment output.
	"hamoffload/gateway",
	// The experiment drivers and the artifacts they print.
	"hamoffload/bench",
	"hamoffload/cmd/veinfo",
	"hamoffload/cmd/hambench",
	"hamoffload/cmd/benchreg",
}

// WallClock lists the packages allowed to use real time and raw
// goroutines: the wall-clock backends, which bridge to the outside world on
// purpose. They are cut out of the deterministic scope, and the
// interprocedural walltime pass stops its call-graph traversal at them — a
// deterministic package reaching time.Now through them is sanctioned. The
// loopback backend (locb) is deliberately NOT here: it runs inside
// simulations next to simulated backends, so it must stay clock-free even
// though it uses real channels.
var WallClock = []string{
	"hamoffload/internal/backend/tcpb",
	"hamoffload/internal/backend/mpib",
}

// unitcastExempt own the unit types and may convert freely.
var unitcastExempt = []string{
	"hamoffload/internal/units",
	"hamoffload/internal/simtime",
}

// flagOrderPackages implement the paper's message protocols (Fig. 5 VEO,
// Fig. 8 DMA): payload bytes must be written before the flag word that
// publishes them. The rule itself lives in ring, in its calls on the
// transport interfaces; dmab and veob are the byte movers behind those
// calls, each of which must keep its own writes in order. flagorder applies
// here.
var flagOrderPackages = []string{
	"hamoffload/internal/backend/ring",
	"hamoffload/internal/backend/dmab",
	"hamoffload/internal/backend/veob",
	"hamoffload/internal/backend/slots",
}

// acqrelExempt packages define the Acquire/Release primitives themselves
// and may manipulate them unpaired.
var acqrelExempt = []string{
	"hamoffload/internal/simtime",
}

// afterfreeExempt packages implement the allocator and may touch addresses
// across Free boundaries by design.
var afterfreeExempt = []string{
	"hamoffload/internal/mem",
}

// borrowckScoped are the packages living under the zero-copy buffer
// ownership contracts that //ham:borrowed annotations seed: the runtime
// core, the ham codec, every communication backend (the backend prefix
// covers locb/tcpb/ring/veob/dmab/mpib, slots, the adapters and conformance) and
// the DMA/VEO layers their serve loops write through. borrowck reports only
// inside these packages; summaries are still computed module-wide, so an
// escape through a neutral helper surfaces at the in-scope call site.
var borrowckScoped = []string{
	"hamoffload/internal/core",
	"hamoffload/internal/ham",
	"hamoffload/internal/backend",
	"hamoffload/internal/dma",
	"hamoffload/internal/veo",
}

// InAny reports whether path equals one of the roots or lies beneath one.
// Exported for module-wide analyzers that reuse the policy tables.
func InAny(path string, roots []string) bool { return inAny(path, roots) }

// Applies reports whether the named analyzer is in force for pkgPath. It is
// the predicate hamlint passes to Run.
func Applies(analyzer, pkgPath string) bool {
	switch analyzer {
	case "walltime", "determinism":
		return inAny(pkgPath, deterministic) && !inAny(pkgPath, WallClock)
	case "spanend":
		return true
	case "unitcast":
		return !inAny(pkgPath, unitcastExempt)
	case "flagorder":
		return inAny(pkgPath, flagOrderPackages)
	case "acqrel":
		return !inAny(pkgPath, acqrelExempt)
	case "afterfree":
		return !inAny(pkgPath, afterfreeExempt)
	case "borrowck":
		return inAny(pkgPath, borrowckScoped)
	case "allowcheck":
		return true
	}
	return true
}

// PolicyExempt lists the packages deliberately outside every scoping table:
// neutral orchestration and tooling that only the universal analyzers
// (spanend, unitcast, acqrel, afterfree) cover. The policy-coverage test
// fails when a package is neither matched by a table nor listed here, so a
// new package cannot land unclassified.
var PolicyExempt = []string{
	"hamoffload",                   // top-level façade re-exporting the public API
	"hamoffload/offload",           // user-facing offload API over internal/core
	"hamoffload/machine",           // cluster assembly; bridges simulated and host worlds
	"hamoffload/cmd/hamlint",       // the lint driver itself
	"hamoffload/cmd/coverreg",      // coverage harness; shells out to go test on the wall clock
	"hamoffload/internal/mutants",  // mutant-table runner; shells out to go test on the wall clock
	"hamoffload/examples",          // demo programs, free to use either clock
	"hamoffload/internal/analysis", // the analyzers and their fixtures
}

// inAny reports whether path equals one of the roots or lies beneath one.
func inAny(path string, roots []string) bool {
	for _, r := range roots {
		if path == r || strings.HasPrefix(path, r+"/") {
			return true
		}
	}
	return false
}
