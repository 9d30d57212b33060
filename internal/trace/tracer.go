package trace

import (
	"sync"

	"hamoffload/internal/simtime"
)

// Phase identifies one step of the offload lifecycle. The mandatory sequence
// for a synchronous offload is: PhaseOffload wraps the whole call on the
// initiating node, and within it PhaseEncode, PhaseCall, PhaseExecute and
// PhaseWait must all appear (see internal/backend/conformance).
type Phase string

const (
	// PhaseOffload covers the full lifecycle on the initiating node, from
	// the moment the offload is issued until its future resolves.
	PhaseOffload Phase = "offload"
	// PhaseEncode covers active-message serialisation (key + payload).
	PhaseEncode Phase = "encode"
	// PhaseCall covers the backend call path that ships the message to the
	// target (message buffer write + flag write for the one-sided protocols).
	PhaseCall Phase = "call"
	// PhaseFlagWrite covers writing the receive flag that publishes a
	// message buffer to the target (sub-span of PhaseCall).
	PhaseFlagWrite Phase = "flag-write"
	// PhasePoll covers the target-side poll iteration that hit a newly set
	// receive flag (the last flag probe before message receipt).
	PhasePoll Phase = "poll"
	// PhaseFetch covers pulling the message body to the target (user-DMA
	// descriptor fetch for the DMA protocol, buffer read for VEO).
	PhaseFetch Phase = "fetch"
	// PhaseExecute covers handler dispatch and execution on the target.
	PhaseExecute Phase = "execute"
	// PhaseResult covers storing the result back to the initiator (SHM
	// stores / result DMA) including the completion-flag write.
	PhaseResult Phase = "result"
	// PhaseWait covers the initiator blocking on offload completion.
	PhaseWait Phase = "wait"
	// PhaseFault marks an injected fault firing (instant event).
	PhaseFault Phase = "fault"
	// PhaseRetry marks a transient failure being retried (instant event).
	PhaseRetry Phase = "retry"
	// PhaseTimeout marks an offload exceeding its timeout (instant event).
	PhaseTimeout Phase = "timeout"
	// PhaseBatch covers a batch frame: the initiator-side flush that ships
	// N coalesced messages in one backend call, and the target-side loop
	// that executes them back to back.
	PhaseBatch Phase = "batch"
	// PhaseHedge marks a hedged request being issued: the speculative second
	// copy of a slow offload, sent to a healthy node (instant event).
	PhaseHedge Phase = "hedge"
	// PhaseAdmit marks a serving-gateway admission decision that rejected a
	// request (tenant quota exhausted or class queue share full; instant
	// event). Admitted requests are not marked — at millions of offloads the
	// interesting signal is the rejections.
	PhaseAdmit Phase = "admit"
	// PhaseSteal marks an idle VE stealing half of the longest per-VE queue
	// in the serving gateway (instant event).
	PhaseSteal Phase = "steal"
)

// NodeInfra marks spans recorded by shared infrastructure (DMA engines, VEO
// API calls, kernel workers) that are not tied to one HAM node.
const NodeInfra = -1

// Span is one recorded operation on a timeline. Simulated backends stamp
// spans with simulated picosecond times; wall-clock backends (locb, tcpb)
// use a Clock that maps real time onto the same scale.
type Span struct {
	Name    string
	Cat     string // component category: "ham", "veo", "dma", "pcie", ...
	Phase   Phase  // lifecycle phase, empty for infrastructure spans
	Tid     string // process / track name
	Node    int    // HAM node id, or NodeInfra
	Backend string // backend short name ("dmab", "veob", ...), empty for infra
	MsgID   int64  // message correlator, -1 when unknown
	Start   simtime.Time
	End     simtime.Time
	Instant bool // a point-in-time marker (fault, retry, timeout), not a span
}

// Dur returns the span length.
func (s Span) Dur() simtime.Duration { return s.End.Sub(s.Start) }

// Clock abstracts the time source spans are stamped with. *simtime.Proc
// satisfies it for simulated components; a wall-clock backend passes one
// that maps real elapsed time onto the simulated picosecond scale.
type Clock interface {
	Now() simtime.Time
}

// Config parameterises a Tracer's time series and SLO. The zero value of
// every field selects a default, so New(Config{}) is NewTracer().
type Config struct {
	// Interval is the initial time-series bin width (default 1 µs). Bins
	// double in width every time a series outgrows its ring.
	Interval simtime.Duration
	// SLOTarget is the offload-latency objective (default 50 µs).
	SLOTarget simtime.Duration
	// SLOWindow is the initial SLO accounting window (default 100 µs);
	// windows double like series bins when too many accumulate.
	SLOWindow simtime.Duration
	// Flows arms causal tracing: trace IDs are allocated per offload and a
	// causal frame is added to every wire message. Off by default because it
	// changes wire bytes (and therefore simulated transfer timing).
	Flows bool
}

func (c Config) fill() Config {
	if c.Interval <= 0 {
		c.Interval = simtime.Microsecond
	}
	if c.SLOTarget <= 0 {
		c.SLOTarget = 50 * simtime.Microsecond
	}
	if c.SLOWindow <= 0 {
		c.SLOWindow = 100 * simtime.Microsecond
	}
	return c
}

// Tracer is the one observability handle of a simulated application: the
// host and target runtimes of a machine share one, so records span nodes.
// It collects spans from instrumented components and feeds per-node
// Registries (counters, histograms, span stats, time series), tracks
// offload latency against an SLO, and — with Config.Flows — keeps the
// causal flow log. A nil *Tracer is valid, records nothing, and costs one
// nil check per instrumentation site, so observability defaults to off
// everywhere. Tracer is safe for concurrent use (the wall-clock backends
// record from multiple goroutines); on the simulated backends all recording
// happens from the single running DES process, so contents are
// deterministic.
type Tracer struct {
	cfg      Config
	mu       sync.Mutex
	spans    []Span
	limit    int   // spans kept; the ones recorded past it are only counted
	dropped  int64 // spans recorded past limit (Dropped)
	regs     map[int]*Registry
	slo      *SLO
	flows    []FlowEvent // recorded only when cfg.Flows
	traceSeq uint64
}

// New returns an empty tracer with cfg's (defaulted) parameters and the
// default 1M-span cap: spans recorded past it still feed the registries and
// are counted (Dropped), but not kept for the export.
func New(cfg Config) *Tracer {
	cfg = cfg.fill()
	return &Tracer{
		cfg:   cfg,
		limit: 1 << 20,
		regs:  map[int]*Registry{},
		slo:   newSLO(cfg.SLOTarget, cfg.SLOWindow, maxWindows),
	}
}

// NewTracer returns a tracer with the default configuration, New(Config{}).
func NewTracer() *Tracer { return New(Config{}) }

// Span opens an infrastructure span (Node = NodeInfra) at the process's
// current simulated time; invoke the returned closure to close it. Usage:
//
//	defer t.Tracer.Span(p, "dma", "priv-dma-write")()
func (t *Tracer) Span(p *simtime.Proc, cat, name string) func() {
	if t == nil {
		return func() {}
	}
	start := p.Now()
	return func() {
		t.record(Span{
			Name: name, Cat: cat, Tid: p.Name(),
			Node: NodeInfra, MsgID: -1,
			Start: start, End: p.Now(),
		})
	}
}

// Instant records an infrastructure point-in-time marker (fault injection
// sites in the DMA/VEOS layers) at the process's current simulated time.
func (t *Tracer) Instant(p *simtime.Proc, cat, name string) {
	if t == nil {
		return
	}
	now := p.Now()
	t.record(Span{
		Name: name, Cat: cat, Tid: p.Name(),
		Node: NodeInfra, MsgID: -1,
		Start: now, End: now, Instant: true,
	})
}

// record appends a finished span and folds it into its node's registry.
func (t *Tracer) record(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.spans) < t.limit {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	r := t.registryLocked(s.Node, s.Backend)
	t.mu.Unlock()
	r.observeSpan(s)
}

func (t *Tracer) registryLocked(node int, backend string) *Registry {
	r, ok := t.regs[node]
	if !ok {
		r = newRegistry(node, backend, t.cfg.Interval)
		t.regs[node] = r
	} else if r.backend == "" && backend != "" {
		r.backend = backend
	}
	return r
}

// Node returns a per-node handle that stamps spans with the node id, the
// backend name, and timestamps from clock. A nil receiver yields a nil
// handle, which is itself a no-op.
func (t *Tracer) Node(node int, backend string, clock Clock) *NodeTracer {
	if t == nil {
		return nil
	}
	tid := ""
	if p, ok := clock.(interface{ Name() string }); ok {
		tid = p.Name()
	}
	return &NodeTracer{t: t, node: node, backend: backend, clock: clock, tid: tid}
}

// Registry returns the metrics registry for a node, creating it on demand.
// Returns nil on a nil tracer.
func (t *Tracer) Registry(node int) *Registry {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.registryLocked(node, "")
}

// Registries returns all node registries ordered by node id.
func (t *Tracer) Registries() []*Registry {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]*Registry, 0, len(t.regs))
	for _, r := range t.regs {
		out = append(out, r)
	}
	t.mu.Unlock()
	sortRegistries(out)
	return out
}

// Len returns the number of recorded spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Dropped returns the number of spans recorded past the span cap, which
// Spans and the Chrome export leave out.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Spans returns a copy of the recorded spans in recording order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == 0 {
		return nil
	}
	return append([]Span(nil), t.spans...)
}

// NodeTracer stamps spans for one HAM node. All methods are safe on a nil
// receiver, which is the disabled-tracing fast path.
type NodeTracer struct {
	t       *Tracer
	node    int
	backend string
	clock   Clock
	tid     string
}

// Begin opens a lifecycle span; invoke the returned closure to close it.
// msgID is the message correlator (-1 when unknown).
func (n *NodeTracer) Begin(ph Phase, name string, msgID int64) func() {
	if n == nil {
		return func() {}
	}
	start := n.clock.Now()
	return func() { n.Since(ph, name, msgID, start) }
}

// Since records a span from an explicitly captured start time to now. It
// serves the "only know it was interesting after the fact" sites, such as
// the poll iteration that finally hit a set flag.
func (n *NodeTracer) Since(ph Phase, name string, msgID int64, start simtime.Time) {
	if n == nil {
		return
	}
	n.t.record(Span{
		Name: name, Cat: "ham", Phase: ph, Tid: n.tid,
		Node: n.node, Backend: n.backend, MsgID: msgID,
		Start: start, End: n.clock.Now(),
	})
}

// Instant records a point-in-time lifecycle marker — a fault firing, a
// retry, a timeout — at the clock's current reading. Exported as a Chrome
// instant event rather than a duration span.
func (n *NodeTracer) Instant(ph Phase, name string, msgID int64) {
	if n == nil {
		return
	}
	now := n.clock.Now()
	n.t.record(Span{
		Name: name, Cat: "ham", Phase: ph, Tid: n.tid,
		Node: n.node, Backend: n.backend, MsgID: msgID,
		Start: now, End: now, Instant: true,
	})
}

// Now returns the handle's clock reading (0 on nil), for capturing start
// times to pass to Since.
func (n *NodeTracer) Now() simtime.Time {
	if n == nil {
		return 0
	}
	return n.clock.Now()
}

// Count bumps a counter in the node's registry.
func (n *NodeTracer) Count(name string, delta int64) {
	if n == nil {
		return
	}
	n.Registry().Count(name, delta)
}

// Observe adds one duration to a named histogram in the node's registry.
func (n *NodeTracer) Observe(name string, d simtime.Duration) {
	if n == nil {
		return
	}
	n.Registry().Observe(name, d)
}

// Tracer returns the application-wide tracer the handle records into (nil
// on a nil handle): series, SLO and flow records name their node
// explicitly, so they go through it.
func (n *NodeTracer) Tracer() *Tracer {
	if n == nil {
		return nil
	}
	return n.t
}

// Registry returns the node's metrics registry (nil on a nil handle).
func (n *NodeTracer) Registry() *Registry {
	if n == nil {
		return nil
	}
	n.t.mu.Lock()
	defer n.t.mu.Unlock()
	return n.t.registryLocked(n.node, n.backend)
}
