// Package faults is the deterministic fault-injection subsystem for the
// simulated machine. A Plan describes which faults to inject — keyed to
// per-site operation counts, to simulated-time windows, or drawn from a
// seed-derived deterministic stream — and an Injector compiled from it is
// consulted at well-defined hook points in the substrates (internal/dma,
// internal/veos, internal/pcie) and the communication backends.
//
// Determinism is the whole point: the same Plan against the same workload
// injects the same faults at the same simulated instants, so chaos tests are
// bit-reproducible in a way real SX-Aurora hardware never is. No math/rand
// global and no wall clock are involved; the probabilistic mode uses a
// splitmix64-style hash of (seed, rule, site, node, op index).
//
// Like internal/trace, the zero value is free: a nil *Injector is valid and
// every method on it is a no-op, so un-faulted runs pay a single nil check
// per hook point.
package faults

import (
	"fmt"
	"sync"

	"hamoffload/internal/simtime"
)

// Kind enumerates the fault classes the injector can produce.
type Kind uint8

const (
	// DMAError fails a DMA transfer (privileged or user DMA, or an LHM
	// access) before any data moves: a failed transfer delivers nothing.
	DMAError Kind = iota + 1
	// BitFlip corrupts one payload byte of a transfer after the data moved.
	// Transfers of 8 bytes or fewer (protocol flag words) are never flipped:
	// flag corruption would wedge the polling protocols rather than surface
	// as a detectable payload error.
	BitFlip
	// Stall delays VEOS daemon operations (process control, privileged DMA
	// syscall paths) until the end of the rule's time window.
	Stall
	// Crash kills a VE process: the card refuses further work until it is
	// recovered via a fresh process.
	Crash
	// LinkDown fails every transfer crossing a PCIe link during the rule's
	// time window.
	LinkDown
	// ConnReset drops a wall-clock backend connection (tcpb).
	ConnReset
	// SlowDown is the fail-slow fault: matching operations still succeed but
	// take Rule.Factor times their nominal cost. A window-mode SlowDown rule
	// on one node is the canonical "sick but alive" VE — degraded DMA, slow
	// VEOS service, a link retrained to a lower speed — that fail-stop
	// detection never sees.
	SlowDown
	// Jitter adds seed-derived latency noise to matching operations, drawn
	// uniformly in [0, Rule.JitterMax) from the plan's splitmix64 stream.
	// Combined with SlowDown it models the erratic response times of a
	// gray-failing card rather than a cleanly proportional slowdown.
	Jitter
)

// String names the fault kind for diagnostics and trace events.
func (k Kind) String() string {
	switch k {
	case DMAError:
		return "dma-error"
	case BitFlip:
		return "bit-flip"
	case Stall:
		return "veos-stall"
	case Crash:
		return "ve-crash"
	case LinkDown:
		return "link-down"
	case ConnReset:
		return "conn-reset"
	case SlowDown:
		return "slow-down"
	case Jitter:
		return "jitter"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Site identifies the hook point consulting the injector. SiteAny in a rule
// matches every site.
type Site uint8

const (
	// SiteAny matches any site when used in a Rule.
	SiteAny Site = iota
	// SitePrivDMA is the privileged-DMA engine (veo_write_mem/veo_read_mem
	// paths, the veob protocol's transport).
	SitePrivDMA
	// SiteUserDMA is the user-DMA engine (the dmab protocol's bulk fetch).
	SiteUserDMA
	// SiteLHM is VE load/store to host memory (dmab flag polling and inline
	// results).
	SiteLHM
	// SiteVEOS is the VEOS daemon syscall path (process control, DMA
	// requests).
	SiteVEOS
	// SiteConn is a wall-clock backend's transport (locb channel, tcpb
	// socket).
	SiteConn
	// SitePCIe is a PCIe link's serialization path: fail-slow rules here
	// stretch the link occupancy itself, degrading every transfer that
	// crosses the link (a link renegotiated to a lower generation speed).
	SitePCIe
)

// String names the site for diagnostics and trace events.
func (s Site) String() string {
	switch s {
	case SiteAny:
		return "any"
	case SitePrivDMA:
		return "priv-dma"
	case SiteUserDMA:
		return "user-dma"
	case SiteLHM:
		return "lhm"
	case SiteVEOS:
		return "veos"
	case SiteConn:
		return "conn"
	case SitePCIe:
		return "pcie"
	}
	return fmt.Sprintf("site(%d)", uint8(s))
}

// AnyNode in Rule.Node matches every node.
const AnyNode = -1

// Rule schedules one fault. Three scheduling modes, chosen by field shape:
//
//   - Rate > 0: probabilistic — each matching operation fires with the given
//     probability, drawn from the plan seed (deterministic across runs).
//   - Until > 0 (and Rate == 0): time window — every matching operation with
//     From <= now < Until fires. This is the natural mode for Stall and
//     LinkDown, and never fires on wall-clock backends (which pass now = 0).
//   - otherwise: op-scheduled — fires on the AfterOp-th matching operation
//     (0-based, counted per (kind, site, node)), then Count-1 more times,
//     every Every-th operation (Every == 0 means consecutive operations).
//
// Kind is mandatory. Site/Node restrict the hook points the rule matches;
// the zero Site (SiteAny) and AnyNode match everything.
type Rule struct {
	Kind Kind
	Site Site
	Node int // a node id, or AnyNode

	// Op-scheduled mode.
	AfterOp uint64
	Count   int // fires, 0 means 1
	Every   uint64

	// Time-window mode (simulated clock).
	From  simtime.Time
	Until simtime.Time

	// Probabilistic mode.
	Rate float64

	// StallFor is the stall duration for Stall rules in op-scheduled or
	// probabilistic mode; window-mode stalls last until Until.
	StallFor simtime.Duration

	// Factor is the latency multiplier of SlowDown rules: a matching
	// operation of nominal cost c takes Factor×c (Factor 10 = degraded 10×).
	// Values at or below 1 inject nothing.
	Factor float64

	// JitterMax bounds the extra latency of Jitter rules; each firing adds
	// a seed-derived duration in [0, JitterMax).
	JitterMax simtime.Duration
}

// Plan is a complete fault schedule: a seed for the probabilistic stream
// plus any number of rules. The zero Plan injects nothing.
type Plan struct {
	Seed  uint64
	Rules []Rule
}

// Error is the error value for an injected transfer-level fault. It is
// classified transient for every kind except Crash, so the runtime's
// retry machinery (core.IsTransient) backs off and retries it.
type Error struct {
	Kind Kind
	Site Site
	Node int
	Op   uint64 // the per-(kind,site,node) operation index that fired
}

// Error formats the injected fault.
func (e *Error) Error() string {
	return fmt.Sprintf("injected fault: %v at %v node %d op %d", e.Kind, e.Site, e.Node, e.Op)
}

// Transient reports whether the fault is worth retrying. Everything but a
// process crash is: the next attempt draws a fresh op index.
func (e *Error) Transient() bool { return e.Kind != Crash }

// numKinds and numSites size the compiled tables: every declared Kind and
// Site is an index (Kind 0 is unused, Site 0 is SiteAny, which LinkError
// queries with).
const (
	numKinds = int(Jitter) + 1
	numSites = int(SitePCIe) + 1
)

// siteTable is what New compiles for one (kind, site) hook point: which
// rules can match there, for which nodes, and the op counters those rules
// read. rules, anyNode and nodes never change after New, so hooks read them
// without the lock; ops is guarded by Injector.mu.
type siteTable struct {
	rules   []int  // indices into Injector.rules of this kind matching this site, in plan order
	anyNode bool   // one of them has Node == AnyNode
	nodes   []bool // nodes[n]: one of them names node n
	ops     []uint64
}

// grow extends the counters to node, the first time an op is counted for a
// node id past the table.
func (st *siteTable) grow(node int) {
	st.ops = append(st.ops, make([]uint64, node+1-len(st.ops))...)
}

// armed reports whether some rule can match node here.
func (st *siteTable) armed(node int) bool {
	return st.anyNode || (node < len(st.nodes) && st.nodes[node])
}

// Injector is the compiled, concurrency-safe decision engine for a Plan.
// nil is a valid receiver for every method and decides "no fault".
// Methods take the current simulated time where time-window rules apply;
// wall-clock callers pass 0. Hooks must name a declared Site and a
// non-negative node id (AnyNode is for rules only).
//
// The op counter of a (kind, site, node) triple is read only by rules
// matching that triple — the AfterOp/Every test, the probabilistic draw,
// Error.Op and Corrupt's offset all sit behind the match. So a hook whose
// triple no rule can match neither locks nor counts: the counter it skips is
// one nothing can observe, and every counter a rule can read advances exactly
// as if all of them were kept.
type Injector struct {
	seed   uint64
	rules  []Rule
	tables [numKinds][numSites]siteTable

	mu       sync.Mutex
	left     []int // remaining fires per op-scheduled rule; -1 = not op-scheduled
	injected uint64
}

// New compiles a plan. A nil plan yields a nil injector, the zero-cost
// default.
func New(p *Plan) *Injector {
	if p == nil {
		return nil
	}
	in := &Injector{
		seed:  p.Seed,
		rules: append([]Rule(nil), p.Rules...),
		left:  make([]int, len(p.Rules)),
	}
	for i, r := range in.rules {
		switch {
		case r.Rate > 0 || r.Until > 0:
			in.left[i] = -1
		case r.Count <= 0:
			in.left[i] = 1
		default:
			in.left[i] = r.Count
		}
		// A rule outside the declared kinds and sites, or naming a negative
		// node, matches no hook.
		if r.Kind == 0 || int(r.Kind) >= numKinds || int(r.Site) >= numSites || r.Node < AnyNode {
			continue
		}
		first, last := r.Site, r.Site
		if r.Site == SiteAny {
			last = Site(numSites - 1)
		}
		for s := first; s <= last; s++ {
			st := &in.tables[r.Kind][s]
			st.rules = append(st.rules, i)
			if r.Node == AnyNode {
				st.anyNode = true
				continue
			}
			for len(st.nodes) <= r.Node {
				st.nodes = append(st.nodes, false)
			}
			st.nodes[r.Node] = true
		}
	}
	return in
}

// Injected returns how many faults have fired so far. Deterministic runs
// must agree on this number; chaos tests assert on it.
func (in *Injector) Injected() uint64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.injected
}

// fire advances the (kind, site, node) op counter and reports whether any
// rule fires for this operation, returning the matched rule. The caller
// holds in.mu and has checked armed(node).
func (in *Injector) fire(kind Kind, site Site, node int, now simtime.Time) (*Rule, uint64, bool) {
	st := &in.tables[kind][site]
	if node >= len(st.ops) {
		st.grow(node)
	}
	op := st.ops[node]
	st.ops[node] = op + 1
	for _, i := range st.rules {
		r := &in.rules[i]
		if r.Node != AnyNode && r.Node != node {
			continue
		}
		switch {
		case r.Rate > 0:
			if r.Until > 0 && (now < r.From || now >= r.Until) {
				continue
			}
			h := mix(in.seed, uint64(i), uint64(kind)<<16|uint64(site)<<8, uint64(node), op)
			if float64(h>>11)/(1<<53) >= r.Rate {
				continue
			}
		case r.Until > 0:
			if now < r.From || now >= r.Until {
				continue
			}
		default:
			if op < r.AfterOp || in.left[i] == 0 {
				continue
			}
			if r.Every > 0 && (op-r.AfterOp)%r.Every != 0 {
				continue
			}
			in.left[i]--
		}
		in.injected++
		return r, op, true
	}
	return nil, op, false
}

// loadCounters are the (kind, site) op counters an LHM load advances, each
// where a rule can match its node: dma.Instr.LoadWord passes the link check
// (LinkError), the transfer check (TransferError) and the fail-slow hook
// (SlowDelay) at the LHM site, in that order, and nothing else.
var loadCounters = [...]struct {
	kind Kind
	site Site
}{{LinkDown, SiteAny}, {DMAError, SiteLHM}, {SlowDown, SiteLHM}, {Jitter, SiteLHM}}

// QuietLoad reports whether an LHM load on node, issued at now, is quiet: no
// rule can fire on it, so it would only count the ops it passes (CountLoads).
// If it is, lapse is when that may change, the next From of a rule's window
// (0: never). Only a time-window rule (Until > 0, with or without Rate) is
// ever quiet, outside [From, Until); an empty window (From >= Until) is quiet
// for good. An op-scheduled rule, or a Rate rule without a window, keeps the
// load armed for good: its op counter decides whether it fires. The tables
// never change after New, so QuietLoad takes no lock and may be asked on any
// process's stack.
func (in *Injector) QuietLoad(now simtime.Time, node int) (quiet bool, lapse simtime.Time) {
	if in == nil {
		return true, 0
	}
	for _, c := range loadCounters {
		st := &in.tables[c.kind][c.site]
		if !st.armed(node) {
			continue
		}
		for _, i := range st.rules {
			r := &in.rules[i]
			switch {
			case r.Node != AnyNode && r.Node != node:
			case r.Until <= 0:
				return false, 0
			case r.From >= r.Until || now >= r.Until:
			case now >= r.From:
				return false, 0
			case lapse == 0 || r.From < lapse:
				lapse = r.From
			}
		}
	}
	return true, lapse
}

// CountLoads accounts for n quiet LHM loads on node (QuietLoad) that a parked
// poll passed over: it advances every counter a literal load would, by n, so a
// rule that reads one inside its window — Error.Op, a Rate or Jitter draw —
// reads what the loads one by one would have left there.
func (in *Injector) CountLoads(node int, n int64) {
	if in == nil {
		return
	}
	for _, c := range loadCounters {
		if st := &in.tables[c.kind][c.site]; st.armed(node) {
			in.mu.Lock()
			if node >= len(st.ops) {
				st.grow(node)
			}
			st.ops[node] += uint64(n)
			in.mu.Unlock()
		}
	}
}

// TransferError decides whether the transfer at site/node fails. The hook
// point must consult it before moving any data: a failed transfer delivers
// nothing.
func (in *Injector) TransferError(now simtime.Time, site Site, node int) error {
	if in == nil || !in.tables[DMAError][site].armed(node) {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if _, op, ok := in.fire(DMAError, site, node, now); ok {
		return &Error{Kind: DMAError, Site: site, Node: node, Op: op}
	}
	return nil
}

// Corrupt decides whether an n-byte transfer gets one payload byte flipped,
// returning the byte offset to corrupt, or -1. Transfers of 8 bytes or
// fewer are never corrupted (see BitFlip).
func (in *Injector) Corrupt(now simtime.Time, site Site, node int, n int64) int64 {
	if in == nil || n <= 8 || !in.tables[BitFlip][site].armed(node) {
		return -1
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if _, op, ok := in.fire(BitFlip, site, node, now); ok {
		return int64(mix(in.seed, uint64(BitFlip), uint64(site), uint64(node), op) % uint64(n))
	}
	return -1
}

// StallDelay decides whether a VEOS operation at node stalls, returning the
// extra simulated delay to serve (0 = none).
func (in *Injector) StallDelay(now simtime.Time, node int) simtime.Duration {
	if in == nil || !in.tables[Stall][SiteVEOS].armed(node) {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	r, _, ok := in.fire(Stall, SiteVEOS, node, now)
	if !ok {
		return 0
	}
	if r.StallFor > 0 {
		return r.StallFor
	}
	if r.Until > now {
		return r.Until.Sub(now)
	}
	return 0
}

// SlowDelay decides how much extra simulated latency the operation at
// site/node suffers, given the operation's nominal cost. SlowDown rules
// scale the nominal cost (Factor 10 returns 9×base so the total is 10×);
// Jitter rules add noise drawn uniformly in [0, JitterMax) from the plan's
// splitmix64 stream. Unlike TransferError the operation still succeeds:
// this is the gray-failure hook, a node that is sick but alive.
func (in *Injector) SlowDelay(now simtime.Time, site Site, node int, base simtime.Duration) simtime.Duration {
	if in == nil {
		return 0
	}
	slow := in.tables[SlowDown][site].armed(node)
	jitter := in.tables[Jitter][site].armed(node)
	if !slow && !jitter {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	var extra simtime.Duration
	if slow {
		if r, _, ok := in.fire(SlowDown, site, node, now); ok && r.Factor > 1 && base > 0 {
			extra += simtime.Duration(float64(base) * (r.Factor - 1))
		}
	}
	if jitter {
		if r, op, ok := in.fire(Jitter, site, node, now); ok && r.JitterMax > 0 {
			h := mix(in.seed, uint64(Jitter), uint64(site)<<16|uint64(node), op)
			extra += simtime.Duration(h % uint64(r.JitterMax))
		}
	}
	return extra
}

// CrashNow decides whether the VE process on node crashes at this
// operation. The caller (the VEOS layer) records the crash; the injector
// only schedules it.
func (in *Injector) CrashNow(now simtime.Time, node int) bool {
	if in == nil || !in.tables[Crash][SiteVEOS].armed(node) {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	_, _, ok := in.fire(Crash, SiteVEOS, node, now)
	return ok
}

// LinkError decides whether a transfer crossing node's PCIe link fails
// because the link is down.
func (in *Injector) LinkError(now simtime.Time, node int) error {
	if in == nil || !in.tables[LinkDown][SiteAny].armed(node) {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if _, op, ok := in.fire(LinkDown, SiteAny, node, now); ok {
		return &Error{Kind: LinkDown, Site: SiteAny, Node: node, Op: op}
	}
	return nil
}

// ConnReset decides whether a wall-clock backend connection to node drops
// at this operation.
func (in *Injector) ConnReset(node int) bool {
	if in == nil || !in.tables[ConnReset][SiteConn].armed(node) {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	_, _, ok := in.fire(ConnReset, SiteConn, node, 0)
	return ok
}

// Seed returns the plan seed the injector's deterministic stream is keyed
// by (0 for a nil injector). Consumers that need their own seed-derived
// randomness — the runtime's retry backoff and hedge-delay jitter — key it
// off the same plan seed so one number reproduces the whole chaos run.
func (in *Injector) Seed() uint64 {
	if in == nil {
		return 0
	}
	return in.seed
}

// Mix is the exported splitmix64 finalizer behind every seed-derived
// decision in this package. Other packages that need deterministic
// pseudo-randomness (core's backoff and hedge-delay jitter) must draw from
// this stream rather than rolling their own source, so a chaos plan's seed
// governs every random choice of the run.
func Mix(vals ...uint64) uint64 { return mix(vals...) }

// mix folds the inputs through a splitmix64-style finalizer — a fixed,
// platform-independent stream that stands in for math/rand.
func mix(vals ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}
