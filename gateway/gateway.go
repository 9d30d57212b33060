// Package gateway is the million-offload serving layer over the HAM-Offload
// runtime: it fronts a set of VE targets with QoS-classed admission control,
// per-tenant token-bucket quotas, per-VE run queues with work stealing, and
// per-class SLO accounting — the operating regime of a many-tenant vector
// appliance rather than a single batch job (see docs/SERVING.md).
//
// Requests enter through Submit, which makes the full admission decision
// synchronously: the tenant's token bucket is charged (deterministic refill
// on the simulated clock), the request's QoS class must have room in its
// weighted share of the queue capacity, and only then is the request placed
// on a per-VE queue by the configured scheduling policy. Rejected requests
// never reach a queue — the caller gets ErrQuota or ErrOverloaded and the
// rejection is counted, traced (trace.PhaseAdmit) and recorded as a series.
//
// Dispatch is window-based: each VE runs at most Window offloads at a time.
// Latency-critical requests ship one per wire message; Batch and BestEffort
// requests coalesce into batch frames sized by however much contiguous
// backlog is waiting (up to MaxBatch), so amortisation grows exactly when
// queues do and evaporates when latency matters more than throughput. A VE
// that goes fully idle steals the back half of the longest queue
// (trace.PhaseSteal), keeping the fleet work-conserving under skewed
// placement or a gray-degraded card.
//
// Everything is deterministic: time comes from the runtime's simulated
// clock, all state lives in slices indexed by VE/class/tenant, and the only
// randomness is whatever the caller's traffic carries. Two runs of the same
// workload produce bit-identical reports.
package gateway

import (
	"errors"
	"fmt"
	"reflect"

	"hamoffload/internal/core"
	"hamoffload/internal/simtime"
	"hamoffload/internal/trace"
	"hamoffload/sched"
)

// Class is a request's quality-of-service class.
type Class uint8

const (
	// LatencyCritical requests get the largest admission share and never
	// coalesce into batch frames: one request, one wire message.
	LatencyCritical Class = iota
	// Batch requests are throughput traffic: they coalesce into batch
	// frames with whatever contiguous backlog is queued behind them.
	Batch
	// BestEffort requests get the smallest admission share; they batch
	// like Batch traffic and are the first to be rejected under pressure.
	BestEffort

	// NumClasses is the number of QoS classes.
	NumClasses = 3
)

func (c Class) String() string {
	switch c {
	case LatencyCritical:
		return "latency-critical"
	case Batch:
		return "batch"
	case BestEffort:
		return "best-effort"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Admission rejection errors. Both are synchronous Submit results; a
// rejected request holds no gateway state.
var (
	// ErrQuota rejects a request whose tenant token bucket is empty.
	ErrQuota = errors.New("gateway: tenant quota exhausted")
	// ErrOverloaded rejects a request whose QoS class has filled its
	// weighted share of the queue capacity.
	ErrOverloaded = errors.New("gateway: class queue share full")
	// ErrTenant rejects a tenant index outside the configured table.
	ErrTenant = errors.New("gateway: unknown tenant")
)

// IsRejection reports whether err is a normal admission rejection (quota or
// overload) rather than a dispatch failure.
func IsRejection(err error) bool {
	return errors.Is(err, ErrQuota) || errors.Is(err, ErrOverloaded)
}

// TenantConfig is one tenant's token-bucket quota. The bucket starts full,
// holds at most Burst tokens, and regains one token every Refill of
// simulated time — refill is computed arithmetically from the clock, so
// admission at time t depends only on t and the tenant's admission history,
// never on how often the gateway was polled.
type TenantConfig struct {
	Name string
	// Burst is the bucket capacity (default 64 when metered).
	Burst int
	// Refill grants one token per interval; zero or negative leaves the
	// tenant unmetered.
	Refill simtime.Duration
}

// Config parameterises a Gateway. The zero value of every field selects a
// sensible default.
type Config struct {
	// Weights splits MaxQueued between the QoS classes: class c may hold at
	// most MaxQueued*Weights[c]/sum queued requests. The shares are strict
	// partitions — unused best-effort capacity is not lent to batch traffic —
	// so a class's admission headroom never depends on another class's load.
	// Default 6:3:1.
	Weights [NumClasses]int
	// MaxQueued caps the total queued (admitted, not yet issued) requests
	// across all VE queues (default 4096).
	MaxQueued int
	// Window is the per-VE in-flight window: how many offloads may be
	// outstanding on one VE at a time (default 8).
	Window int
	// MaxBatch caps how many contiguous batchable requests one issue pops
	// into a single batch frame (default 8; 1 disables coalescing). New arms
	// the runtime's batching policy to match when it is not already armed.
	MaxBatch int
	// Tenants is the quota table; Submit takes an index into it. An empty
	// table means a single unmetered tenant 0.
	Tenants []TenantConfig
	// SLOTargets are the per-class latency objectives the SLO trackers
	// account against (defaults 60 µs, 300 µs, 1 ms).
	SLOTargets [NumClasses]simtime.Duration
	// SLOBudget is the violation budget per class (default 1%).
	SLOBudget float64
	// SLOWindow is the SLO accounting window length (default 500 µs).
	SLOWindow simtime.Duration
	// Placement picks the VE queue for an admitted request; it sees the
	// per-VE backlog (queued + in flight) as the in-flight slice. Default
	// sched.LeastInFlight.
	Placement sched.Policy
	// KeepSamples retains every completed request's latency (µs of
	// simulated time) per class, for percentile reporting by callers that
	// need exact ranks rather than histogram quantiles.
	KeepSamples bool
}

func (c Config) withDefaults() Config {
	if c.Weights == ([NumClasses]int{}) {
		c.Weights = [NumClasses]int{6, 3, 1}
	}
	for i, w := range c.Weights {
		if w <= 0 {
			c.Weights[i] = 1
		}
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = 4096
	}
	if c.Window <= 0 {
		c.Window = 8
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.SLOTargets == ([NumClasses]simtime.Duration{}) {
		c.SLOTargets = [NumClasses]simtime.Duration{
			60 * simtime.Microsecond,
			300 * simtime.Microsecond,
			simtime.Millisecond,
		}
	}
	for i, d := range c.SLOTargets {
		if d <= 0 {
			c.SLOTargets[i] = 60 * simtime.Microsecond
		}
	}
	if c.SLOBudget <= 0 {
		c.SLOBudget = 0.01
	}
	if c.SLOWindow <= 0 {
		c.SLOWindow = 500 * simtime.Microsecond
	}
	if c.Placement == nil {
		c.Placement = sched.LeastInFlight()
	}
	c.Tenants = append([]TenantConfig(nil), c.Tenants...)
	for i := range c.Tenants {
		if c.Tenants[i].Refill > 0 && c.Tenants[i].Burst <= 0 {
			c.Tenants[i].Burst = 64
		}
	}
	return c
}

// Ticket is one admitted request's handle. The gateway settles it during
// Poll or Drain; afterwards Done reports true and Err/Latency are valid. The
// request's future lives in the ticket: the gateway issues into it. It holds
// only what outlives the issue: the functor waits beside it in its run-queue
// entry and is gone once core.Issue has encoded it into the wire.
//
// Tickets are carved from slabs of up to slabBytes (32 KiB), one slot per
// admitted request and never reused, so a ticket stays the caller's for as
// long as they hold it. A held ticket keeps its whole slab alive; a slab is
// freed once none of its tickets is reachable.
type Ticket[R any] struct {
	Tenant int
	Class  Class
	vi     int32 // index into the gateway's node list; beside Class, in its padding

	g *Gateway[R]
	// stamp is the arrival time (a simtime.Time) until the ticket settles
	// and the latency (a simtime.Duration) from then on: the two are never
	// needed at once, so they share a word.
	stamp int64
	fut   core.Future[R]
}

// Done reports whether the request has settled.
func (tk *Ticket[R]) Done() bool { return tk.fut.Done() }

// Value returns the request's result; valid once Done.
func (tk *Ticket[R]) Value() (R, error) {
	if !tk.fut.Done() {
		var zero R
		return zero, nil
	}
	return tk.fut.Get() // settled: returns at once
}

// Err returns the settled request's error (nil on success).
func (tk *Ticket[R]) Err() error {
	_, err := tk.Value()
	return err
}

// Latency returns the admission-to-settle latency; ok once Done, and
// (0, false) before.
func (tk *Ticket[R]) Latency() (simtime.Duration, bool) {
	if !tk.fut.Done() {
		return 0, false
	}
	return simtime.Duration(tk.stamp), true
}

// ticketHook is a Ticket seen as its future's settle hook: the future holds
// the ticket pointer itself, so tracking a request allocates no closure.
type ticketHook[R any] Ticket[R]

// FutureSettled implements core.SettleHook.
func (h *ticketHook[R]) FutureSettled() {
	tk := (*Ticket[R])(h)
	tk.g.settle(tk)
}

// fifo is a slice-backed FIFO with a moving head, rewound when it empties
// and compacted when the dead prefix outgrows the live tail. Every slot
// outside [head, len) holds the zero T, so the backing array references
// nothing the FIFO no longer owns.
type fifo[T any] struct {
	items []T
	head  int
}

func (q *fifo[T]) len() int { return len(q.items) - q.head }

func (q *fifo[T]) push(v T) {
	n := len(q.items)
	if n == cap(q.items) {
		q.grow()
	}
	q.items = q.items[:n+1]
	q.items[n] = v
}

// grow doubles the backing array. pop rewinds and compacts in place, so a
// queue stops growing once it has held its peak backlog.
func (q *fifo[T]) grow() {
	q.items = append(make([]T, 0, max(16, 2*cap(q.items))), q.items...)
}

func (q *fifo[T]) at(i int) T { return q.items[q.head+i] }

func (q *fifo[T]) pop() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head++
	switch {
	case q.head == len(q.items):
		q.items = q.items[:0]
		q.head = 0
	case q.head > len(q.items)/2 && q.head > 32:
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items = q.items[:n]
		q.head = 0
	}
	return v
}

// dropTail removes the back k items, which the caller has handed to a
// thief, and clears the vacated tail: the victim's backing array must keep
// no ticket or functor it no longer owns, or settled tickets, their futures
// and the functors' argument buffers stay reachable until a later push
// happens to overwrite them.
func (q *fifo[T]) dropTail(k int) {
	n := len(q.items)
	clear(q.items[n-k:])
	q.items = q.items[:n-k]
}

// tail returns the back k items in order; valid until the next push or pop.
func (q *fifo[T]) tail(k int) []T { return q.items[len(q.items)-k:] }

// entry is one admitted request waiting on a run queue: its ticket and the
// functor to issue. The functor lives here, not in the ticket, so it is
// dropped with the queue slot when the request issues.
type entry[R any] struct {
	tk *Ticket[R]
	fn core.Functor[R]
}

// veQueue is one VE's run queue. Latency-critical requests wait in their
// own FIFO and always dispatch ahead of the bulk (batchable) FIFO, so a
// burst of batch traffic cannot head-of-line-block an interactive request
// that is still on the host.
type veQueue[R any] struct {
	lc   fifo[entry[R]]
	bulk fifo[entry[R]]
}

func (q *veQueue[R]) len() int { return q.lc.len() + q.bulk.len() }

func (q *veQueue[R]) push(e entry[R]) {
	if e.tk.Class == LatencyCritical {
		q.lc.push(e)
	} else {
		q.bulk.push(e)
	}
}

// classStats is one QoS class's accounting.
type classStats struct {
	admitted      int64
	rejectedQuota int64
	rejectedShare int64
	completed     int64
	failed        int64
	slo           *trace.SLO
	samples       []float64 // µs, only with KeepSamples
}

// slabBytes is the size class of a ticket slab: the largest Go size class
// for small objects, so a slab is one malloc. A slab holds pointers and is
// over 512 B, so the allocator puts an 8-B header in front of it, inside
// the size class; what is left after the last whole ticket (56 B for the
// 64-B Ticket[int64]: 511 tickets and the header take 32 712 B) is slack.
const (
	slabBytes  = 32 << 10
	slabHeader = 8
)

// slabLen is how many tickets fill one slab (at least one, for a result
// type so large that a single ticket overflows the class).
func slabLen[R any]() int {
	return max(1, int((slabBytes-slabHeader)/reflect.TypeFor[Ticket[R]]().Size()))
}

// tenantStats is one tenant's accounting.
type tenantStats struct {
	admitted int64
	rejected int64
}

// Gateway fronts a set of VE target nodes of one runtime. Like the rest of
// the initiator-side stack it is not safe for concurrent use; on the
// simulated backends everything runs on the single DES process.
type Gateway[R any] struct {
	rt    *core.Runtime
	cfg   Config
	nodes []core.NodeID

	queues   []veQueue[R]
	inflight []int
	issued   []int64
	stolen   []int64 // requests stolen INTO this VE
	maxQueue []int
	backlog  []int // placement scratch: queued + inflight per VE

	// infl holds each VE's issued, unsettled tickets in issue order. The
	// DMA target executes messages in arrival order, so testing only the
	// head of each FIFO is enough to discover settlements — one simulated
	// flag probe per VE per poll instead of one per in-flight request.
	infl    []fifo[*Ticket[R]]
	batcher *core.Batcher

	queued        int
	queuedByClass [NumClasses]int
	classCap      [NumClasses]int

	buckets []core.TokenBucket
	tenants []tenantStats
	classes [NumClasses]classStats

	steals    int64
	submitted int64

	// slab is the unused rest of the current ticket slab; Submit takes the
	// next ticket from its front.
	slab []Ticket[R]

	// The rejection errors, built once: a refusal is a third of the traffic
	// at the peaks and must cost no formatting.
	errQuota      []error // per tenant
	errOverloaded [NumClasses]error
}

// New builds a gateway over rt's target nodes. The runtime's batching
// policy is armed to the gateway's MaxBatch when not already enabled, so
// batchable classes can coalesce.
func New[R any](rt *core.Runtime, nodes []core.NodeID, cfg Config) (*Gateway[R], error) {
	if len(nodes) == 0 {
		return nil, errors.New("gateway: no target nodes")
	}
	cfg = cfg.withDefaults()
	g := &Gateway[R]{
		rt:       rt,
		cfg:      cfg,
		nodes:    append([]core.NodeID(nil), nodes...),
		queues:   make([]veQueue[R], len(nodes)),
		infl:     make([]fifo[*Ticket[R]], len(nodes)),
		inflight: make([]int, len(nodes)),
		issued:   make([]int64, len(nodes)),
		stolen:   make([]int64, len(nodes)),
		maxQueue: make([]int, len(nodes)),
		backlog:  make([]int, len(nodes)),
		batcher:  core.NewBatcher(rt),
		buckets:  make([]core.TokenBucket, len(cfg.Tenants)),
		tenants:  make([]tenantStats, max(1, len(cfg.Tenants))),
	}
	sum := 0
	for _, w := range cfg.Weights {
		sum += w
	}
	for c := range g.classCap {
		g.classCap[c] = max(1, cfg.MaxQueued*cfg.Weights[c]/sum)
	}
	for i := range g.buckets {
		g.buckets[i] = core.NewTokenBucket(cfg.Tenants[i].Burst, rt.SimNow())
	}
	for c := range g.classes {
		g.classes[c].slo = trace.NewSLO(cfg.SLOTargets[c], cfg.SLOBudget, cfg.SLOWindow)
		g.errOverloaded[c] = fmt.Errorf("%w: class %s", ErrOverloaded, Class(c))
	}
	g.errQuota = make([]error, len(g.tenants))
	for t := range g.errQuota {
		g.errQuota[t] = fmt.Errorf("%w: tenant %d", ErrQuota, t)
	}
	if cfg.MaxBatch > 1 && !rt.Batching().Enabled() {
		rt.SetBatching(core.BatchPolicy{MaxMessages: cfg.MaxBatch})
	}
	return g, nil
}

// Nodes returns the gateway's target set in order.
func (g *Gateway[R]) Nodes() []core.NodeID {
	return append([]core.NodeID(nil), g.nodes...)
}

// takeToken charges tenant ti's bucket at simulated time now. Unmetered
// tenants always pass.
func (g *Gateway[R]) takeToken(ti int, now simtime.Time) bool {
	if ti >= len(g.buckets) {
		return true // empty tenant table: single unmetered tenant
	}
	tc := g.cfg.Tenants[ti]
	return tc.Refill <= 0 || g.buckets[ti].Take(now, tc.Refill, tc.Burst)
}

// Submit runs the admission decision for one request and, if admitted,
// places it on a VE queue and pumps the dispatch windows. The returned
// ticket settles during a later Poll or Drain. A rejection returns a nil
// ticket and ErrTenant, ErrQuota or ErrOverloaded.
func (g *Gateway[R]) Submit(tenant int, class Class, fn core.Functor[R]) (*Ticket[R], error) {
	if tenant < 0 || class >= NumClasses ||
		(len(g.cfg.Tenants) > 0 && tenant >= len(g.cfg.Tenants)) ||
		(len(g.cfg.Tenants) == 0 && tenant != 0) {
		return nil, errBadRequest(tenant, class)
	}
	now := g.rt.SimNow()
	tr := g.rt.Tracer()
	g.submitted++
	if !g.takeToken(tenant, now) {
		g.classes[class].rejectedQuota++
		g.tenants[tenant].rejected++
		if tr != nil {
			tr.Instant(trace.PhaseAdmit,
				fmt.Sprintf("reject quota tenant %d %s", tenant, class), g.submitted)
			tr.Tracer().Add(int(g.rt.ThisNode()), trace.SeriesGatewayReject, now, 1)
		}
		return nil, g.errQuota[tenant]
	}
	if g.queuedByClass[class] >= g.classCap[class] {
		g.classes[class].rejectedShare++
		g.tenants[tenant].rejected++
		if tr != nil {
			tr.Instant(trace.PhaseAdmit,
				fmt.Sprintf("reject overload %s", class), g.submitted)
			tr.Tracer().Add(int(g.rt.ThisNode()), trace.SeriesGatewayReject, now, 1)
		}
		return nil, g.errOverloaded[class]
	}
	for i := range g.nodes {
		g.backlog[i] = g.queues[i].len() + g.inflight[i]
	}
	vi := g.cfg.Placement.Pick(int(g.submitted), g.nodes, g.backlog)
	if len(g.slab) == 0 {
		g.refill()
	}
	tk := &g.slab[0]
	g.slab = g.slab[1:]
	*tk = Ticket[R]{Tenant: tenant, Class: class, g: g, vi: int32(vi), stamp: int64(now)}
	g.queues[vi].push(entry[R]{tk, fn})
	g.queued++
	g.queuedByClass[class]++
	g.classes[class].admitted++
	g.tenants[tenant].admitted++
	if n := g.queues[vi].len(); n > g.maxQueue[vi] {
		g.maxQueue[vi] = n
	}
	if tr != nil {
		tr.Tracer().Add(int(g.rt.ThisNode()), trace.SeriesGatewayAdmit, now, 1)
		tr.Tracer().Gauge(int(g.nodes[vi]), trace.SeriesGatewayQueue, now, int64(g.queues[vi].len()))
	}
	g.pump()
	return tk, nil
}

// refill starts a new ticket slab. The old one is dropped, not reused: its
// tickets are their callers' and live on in it for as long as they are held.
func (g *Gateway[R]) refill() {
	g.slab = make([]Ticket[R], slabLen[R]()) // one slab per slabLen admitted requests: the tickets Submit returns
}

// errBadRequest renders the rejection of a request no table has a row for.
func errBadRequest(tenant int, class Class) error {
	if class >= NumClasses {
		return fmt.Errorf("gateway: invalid class %d", class)
	}
	return fmt.Errorf("%w: %d", ErrTenant, tenant)
}

// settle records one ticket's completion. It runs from the future's settle
// hook, i.e. during Poll's Test sweep or a Drain Get.
func (g *Gateway[R]) settle(tk *Ticket[R]) {
	now := g.rt.SimNow()
	lat := now.Sub(simtime.Time(tk.stamp))
	tk.stamp = int64(lat)
	g.inflight[tk.vi]--
	cs := &g.classes[tk.Class]
	cs.completed++
	if tk.Err() != nil {
		cs.failed++
	}
	cs.slo.Observe(now, lat)
	if g.cfg.KeepSamples {
		cs.samples = append(cs.samples, lat.Microseconds())
	}
}

// steal moves the back half of the longest queue to idle VE vi. It returns
// false when no queue has at least two waiting requests.
func (g *Gateway[R]) steal(vi int) bool {
	victim, best := -1, 1
	for j := range g.queues {
		if j == vi {
			continue
		}
		if n := g.queues[j].len(); n > best {
			victim, best = j, n
		}
	}
	if victim < 0 {
		return false
	}
	k := best / 2
	// Take bulk work first — moving batchables costs the victim nothing it
	// was about to do — and dip into the latency-critical FIFO only when the
	// backlog is mostly interactive.
	vq := &g.queues[victim]
	kBulk := min(k, vq.bulk.len())
	g.moveTail(&vq.bulk, kBulk, vi)
	g.moveTail(&vq.lc, k-kBulk, vi)
	g.steals++
	g.stolen[vi] += int64(k)
	if tr := g.rt.Tracer(); tr != nil {
		tr.Instant(trace.PhaseSteal,
			fmt.Sprintf("ve %d steals %d of %d from ve %d", g.nodes[vi], k, best, g.nodes[victim]), g.steals)
		now := g.rt.SimNow()
		tr.Tracer().Add(int(g.nodes[vi]), trace.SeriesGatewaySteals, now, int64(k))
		tr.Tracer().Gauge(int(g.nodes[victim]), trace.SeriesGatewayQueue, now, int64(g.queues[victim].len()))
		tr.Tracer().Gauge(int(g.nodes[vi]), trace.SeriesGatewayQueue, now, int64(g.queues[vi].len()))
	}
	if n := g.queues[vi].len(); n > g.maxQueue[vi] {
		g.maxQueue[vi] = n
	}
	return true
}

// moveTail re-homes the back k requests of a victim's FIFO, in order, on
// VE vi's queue. Thief and victim are different VEs, so the entries, ticket
// and functor, go straight from one backing array to the other.
func (g *Gateway[R]) moveTail(from *fifo[entry[R]], k, vi int) {
	for _, e := range from.tail(k) {
		e.tk.vi = int32(vi)
		g.queues[vi].push(e)
	}
	from.dropTail(k)
}

// pump fills every VE's dispatch window from its queue, stealing into fully
// idle VEs first. Latency-critical requests issue one per message; batchable
// runs coalesce into batch frames (see issue).
func (g *Gateway[R]) pump() {
	for vi := range g.nodes {
		for g.inflight[vi] < g.cfg.Window {
			if g.queues[vi].len() == 0 {
				if g.inflight[vi] > 0 || !g.steal(vi) {
					break
				}
			}
			if !g.issue(vi) {
				break
			}
		}
	}
}

// issue ships one dispatch unit from VE vi's queue: a single
// latency-critical message, or one batch frame of bulk requests. It returns
// false when it declines to ship (nothing runnable, or a partial frame held
// back to fill).
func (g *Gateway[R]) issue(vi int) bool {
	q := &g.queues[vi]
	node := g.nodes[vi]
	if q.lc.len() > 0 {
		e := q.lc.pop()
		g.noteIssued(e.tk, vi)
		core.Issue(g.rt, nil, node, &e.fn, &e.tk.fut)
		g.track(e.tk)
		return true
	}
	run := min(g.cfg.Window-g.inflight[vi], g.cfg.MaxBatch, q.bulk.len())
	if run == 0 {
		return false
	}
	// Nagle-style frame building: while the VE has in-flight work covering
	// the wait, hold a partial frame back so it can fill to MaxBatch — the
	// amortisation is what buys bulk throughput. An idle VE ships whatever
	// it has; the held frame ships at the latest when the window drains.
	if g.inflight[vi] > 0 && run < g.cfg.MaxBatch {
		return false
	}
	for i := 0; i < run; i++ {
		e := q.bulk.pop()
		g.noteIssued(e.tk, vi)
		core.Issue(g.rt, g.batcher, node, &e.fn, &e.tk.fut)
		g.track(e.tk)
	}
	g.batcher.Flush(node)
	return true
}

// noteIssued moves one ticket's accounting from queued to in flight.
func (g *Gateway[R]) noteIssued(tk *Ticket[R], vi int) {
	g.queued--
	g.queuedByClass[tk.Class]--
	g.inflight[vi]++
	g.issued[vi]++
}

// track registers the settle hook and adds tk to its VE's in-flight FIFO.
func (g *Gateway[R]) track(tk *Ticket[R]) {
	tk.fut.OnSettleHook((*ticketHook[R])(tk))
	g.infl[tk.vi].push(tk)
}

// Poll harvests settled requests without blocking and refills the dispatch
// windows. It probes only the oldest in-flight request of each VE (the DMA
// target settles in issue order, so the head gates the rest) and returns
// how many requests settled. Callers drive it from their event loop
// between arrivals. A backend that settles out of order only delays
// discovery to the next Drain — nothing is lost.
func (g *Gateway[R]) Poll() int {
	settled := 0
	for vi := range g.infl {
		q := &g.infl[vi]
		for q.len() > 0 {
			tk := q.at(0)
			if !tk.fut.Test() {
				break
			}
			q.pop()
			settled++
		}
	}
	g.pump()
	return settled
}

// Drain blocks until every admitted request has settled, pumping queues as
// windows free up. Time advances on the simulated clock while it waits.
func (g *Gateway[R]) Drain() {
	for {
		g.Poll()
		var head *Ticket[R]
		for vi := range g.infl {
			if g.infl[vi].len() > 0 {
				head = g.infl[vi].at(0)
				break
			}
		}
		if head == nil {
			if g.queued != 0 {
				// Queues non-empty with nothing in flight cannot happen: pump
				// always issues when a window is free. Guard anyway.
				panic("gateway: queued requests with no in-flight work")
			}
			return
		}
		// Block on a VE's oldest in-flight request; its settlement advances
		// the clock and usually settles neighbours, which the next Poll
		// sweep harvests.
		head.fut.Get()
	}
}

// InFlight returns the total number of issued, unsettled requests.
func (g *Gateway[R]) InFlight() int {
	n := 0
	for vi := range g.infl {
		n += g.infl[vi].len()
	}
	return n
}

// Queued returns the total number of admitted, not yet issued requests.
func (g *Gateway[R]) Queued() int { return g.queued }

// Steals returns how many steal operations have run.
func (g *Gateway[R]) Steals() int64 { return g.steals }
