package simtime_test

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hamoffload/gateway"
	"hamoffload/internal/core"
	"hamoffload/internal/faults"
	"hamoffload/internal/simtime"
	"hamoffload/internal/topology"
	"hamoffload/internal/trace"
	"hamoffload/machine"
	"hamoffload/offload"
)

// A process's private costs are one sleep (Proc.Charge): it owes them and
// pays before it next touches what another process sees. The oracle is the
// same program with every charge sleeping at once (simtime.Eager). Each
// generated world — 1 to 3 VEs over dmab, veob or the mpib split across
// machines, offloads submitted sync, async, in batch frames or through the
// gateway, under fault plans of slow-down windows, transfer errors, bit
// flips, link-down windows and crashes, and of op-scheduled and window-less
// Rate rules at the sites an LHM flag load passes — runs both ways, and every
// settle instant and result, each card's LHM loads, the faults fired and, on
// a traced world, every span and fault instant must agree. Events and yields
// may not: fusing sleeps is what the debt is for. A traced world also runs a
// third time, its flows twin: with causal flows armed it must agree with its
// flows-off run on all of these, spans included.
//
// A world with a rule at a site its dmab flag loads pass runs a third time,
// with its tracer flipped. A traced flag load is the serve loop's own; an
// untraced one's poll parks, passing over the loads no rule fails or delays
// by a draw of its own, with a slow-down window in their cost. Both give the
// same settle instants and results, loads and faults fired. A traced connect
// of a third VE takes a tenth of a second of wall time, its two cards'
// loads each the loop's own, so the test flips every other world of up to
// two VEs; FuzzFaultPollEquivalence flips any.

// debtWork is the worlds' kernel: it charges vector and scalar work, from
// nanoseconds to tens of microseconds — long enough for the host's polls to
// fall inside what the VE owes —, and its result outgrows the inline result
// slot for some arguments, so results take the overflow path too.
var debtWork = offload.NewFunc2[[]float64]("simtime.debt_work",
	func(c *offload.Ctx, n, work int64) ([]float64, error) {
		if n < 0 || n > 64 || work < 0 || work > 40 {
			return nil, fmt.Errorf("debt_work(%d, %d): a flipped argument", n, work)
		}
		c.ChargeVector(work*work<<16, work*512, int(1+work%8))
		if work%3 == 0 {
			c.ChargeVector(work*100, 0, 1)
		}
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(int64(i)*7+n) + float64(work)*0.5
		}
		return out, nil
	})

// debtWorld is one generated world.
type debtWorld struct {
	ves     int
	backend string // "dmab", "veob" or "mpib"
	submit  string // "sync", "async", "batch" or "gateway"
	traced  bool
	flows   bool // traced with causal flows armed (the flows twin)
	retry   bool
	kill    int // kill card 0 of machine 0 before this op (-1: never)
	ops     int
	rules   func(connected simtime.Time) []faults.Rule
	polled  bool // a rule is at a site a dmab flag load passes (pollSite)
	seed    int64
	// onConnect, if set, learns when the program has connected.
	onConnect func(simtime.Time)
}

// debtOutcome is everything the two runs of a world must agree on.
type debtOutcome struct {
	log      []string // per op: when the host had it settled, and what
	loads    []int64  // per card, at the end of the program
	injected uint64
	spans    []string // traced worlds: every span and instant, sorted
	err      string
}

var backends = [...]string{"dmab", "veob", "mpib"}
var submits = [...]string{"sync", "async", "batch", "gateway"}

// connectedAt is when a world of backend over ves cards has connected, the
// origin of its fault windows.
var connectedAt = map[string]simtime.Time{}

func genDebtWorld(seed int64) debtWorld {
	r := rand.New(rand.NewSource(seed))
	w := debtWorld{
		backend: backends[r.Intn(len(backends))],
		submit:  submits[r.Intn(len(submits))],
		traced:  r.Intn(4) == 0,
		retry:   r.Intn(2) == 0,
		kill:    -1,
		ops:     8 + r.Intn(24),
		seed:    seed,
	}
	w.ves = 1 + r.Intn(3)
	if w.backend == "mpib" {
		w.ves = 2 + r.Intn(2) // machines of one VE each
	}
	if r.Intn(8) == 0 {
		w.kill = r.Intn(w.ops)
	}
	n := r.Intn(4)
	type pick struct {
		kind faults.Kind
		site faults.Site
	}
	var picks []pick
	kinds := []pick{
		{faults.SlowDown, faults.SiteAny}, {faults.SlowDown, faults.SiteLHM}, {faults.SlowDown, faults.SitePCIe},
		{faults.DMAError, faults.SiteUserDMA}, {faults.DMAError, faults.SiteLHM}, {faults.DMAError, faults.SitePrivDMA},
		{faults.BitFlip, faults.SiteUserDMA}, {faults.BitFlip, faults.SiteAny},
		{faults.LinkDown, faults.SiteAny}, {faults.Jitter, faults.SiteLHM}, {faults.Jitter, faults.SitePCIe},
		{faults.Crash, faults.SiteVEOS},
	}
	for range n {
		pk := kinds[r.Intn(len(kinds))]
		if pk.kind == faults.BitFlip && !w.retry {
			continue // only the retry envelope's checksum tells a flipped message
		}
		picks = append(picks, pk)
		w.polled = w.polled || pollSite(pk.kind, pk.site) && w.backend != "veob"
	}
	w.rules = func(connected simtime.Time) []faults.Rule {
		rr := rand.New(rand.NewSource(seed ^ 0x5eed))
		// The modes beyond the time window draw from a stream of their own,
		// so a world's windows are what they were.
		mr := rand.New(rand.NewSource(seed ^ 0x0b5e))
		var rules []faults.Rule
		for _, pk := range picks {
			from := connected.Add(simtime.Duration(rr.Int63n(int64(200 * simtime.Microsecond))))
			until := from.Add(simtime.Duration(10+rr.Int63n(300)) * simtime.Microsecond)
			node := rr.Intn(w.ves)
			if rr.Intn(3) == 0 {
				node = faults.AnyNode
			}
			rule := faults.Rule{Kind: pk.kind, Site: pk.site, Node: node, From: from, Until: until}
			switch pk.kind {
			case faults.SlowDown:
				rule.Factor = float64(2 + rr.Intn(3))
			case faults.Jitter:
				rule.Rate, rule.JitterMax = 0.5, simtime.Duration(1+rr.Intn(3))*simtime.Microsecond
			case faults.Crash:
				rule.Node = rr.Intn(w.ves)
			default:
				rule.Rate = 0.05 + 0.3*rr.Float64()
			}
			if pollSite(pk.kind, pk.site) {
				widen(&rule, mr)
			}
			rules = append(rules, rule)
		}
		return rules
	}
	return w
}

// pollSite reports whether a rule of kind at site is one an LHM flag load
// passes.
func pollSite(kind faults.Kind, site faults.Site) bool {
	switch kind {
	case faults.LinkDown:
		return site == faults.SiteAny
	case faults.SlowDown:
		return site == faults.SiteAny || site == faults.SiteLHM
	case faults.DMAError, faults.Jitter:
		return site == faults.SiteLHM
	}
	return false
}

// widen redraws half of the rules at an LHM load's sites from mr: an
// op-scheduled rule without a window, or a Rate rule without one, counting
// from the first op of the run; and a SlowDown's Factor, half of the time one
// whose scaling of a cost is not a whole number of picoseconds.
func widen(rule *faults.Rule, mr *rand.Rand) {
	if rule.Kind == faults.SlowDown && mr.Intn(2) == 0 {
		rule.Factor = 1 + float64(1+mr.Intn(40))/10
	}
	switch mr.Intn(4) {
	case 0:
		rule.From, rule.Until, rule.Rate = 0, 0, 0
		rule.AfterOp = uint64(mr.Intn(20_000))
		rule.Every = uint64(mr.Intn(300))
		rule.Count = 1 + mr.Intn(8)
	case 1:
		rule.From, rule.Until = 0, 0
		rule.Rate = 0.0005 + 0.02*mr.Float64()
	}
}

// connected returns when a fault-free world of w's shape has connected.
func (w debtWorld) connected(t *testing.T) simtime.Time {
	key := fmt.Sprintf("%s/%d", w.backend, w.ves)
	at, ok := connectedAt[key]
	if !ok {
		bare := debtWorld{ves: w.ves, backend: w.backend, submit: "sync", kill: -1,
			rules: func(simtime.Time) []faults.Rule { return nil }, onConnect: func(t simtime.Time) { at = t }}
		bare.run(t, false, 0)
		connectedAt[key] = at
	}
	return at
}

// run runs w once, with every charge sleeping at once if eager; its fault
// windows open after connected.
func (w debtWorld) run(t *testing.T, eager bool, connected simtime.Time) debtOutcome {
	t.Helper()
	var out debtOutcome
	timing := topology.DefaultTiming()
	var tr *trace.Tracer
	if w.traced {
		tr = trace.New(trace.Config{Flows: w.flows})
		timing.Tracer = tr
	}
	cfg := machine.Config{VEs: w.ves, Timing: &timing}
	if rules := w.rules(connected); len(rules) > 0 {
		cfg.Faults = &faults.Plan{Seed: uint64(w.seed), Rules: rules}
	}
	opts := machine.ProtocolOptions{}
	if w.retry {
		opts.Retry = offload.FaultTolerance{MaxRetries: 3, BackoffBase: 2 * machine.Microsecond, BackoffMax: 16 * machine.Microsecond}
	}
	if w.submit == "batch" {
		opts.Batch = offload.BatchPolicy{MaxMessages: 4}
	}

	var eng *simtime.Engine
	var ms []*machine.Machine
	var c *machine.Cluster
	var runMain func(func(p *machine.Proc) error) error
	if w.backend == "mpib" {
		cfg.VEs = 1
		var err error
		if c, err = machine.NewCluster(w.ves, cfg); err != nil {
			t.Fatal(err)
		}
		eng, ms, runMain = c.Eng, c.Nodes, c.RunMain
	} else {
		m, err := machine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng, ms, runMain = m.Eng, []*machine.Machine{m}, m.RunMain
	}
	if eager {
		simtime.Eager(eng)
	}
	err := runMain(func(p *machine.Proc) error {
		var rt *offload.Runtime
		var err error
		switch w.backend {
		case "dmab":
			rt, err = machine.ConnectDMA(p, ms[0], opts)
		case "veob":
			rt, err = machine.ConnectVEO(p, ms[0], opts)
		default:
			rt, err = machine.ConnectCluster(p, c, opts)
		}
		if err != nil {
			return err
		}
		if w.onConnect != nil {
			w.onConnect(p.Now())
		}
		defer func() { _ = rt.Finalize() }()
		w.workload(p, ms[0], rt, &out)
		// A VE still serving when the run stops is cut off inside a sleep
		// charging eagerly, but may have run ahead with the debt: the
		// program lets every VE finish what it was given first.
		p.Sleep(2 * simtime.Millisecond)
		for _, m := range ms {
			for _, c := range m.Cards {
				if vp := c.Process(); vp != nil {
					out.loads = append(out.loads, vp.Loads())
				} else {
					out.loads = append(out.loads, -1)
				}
			}
		}
		return nil
	})
	if err != nil {
		out.err = err.Error()
	}
	for _, m := range ms {
		out.injected += m.Timing.Faults.Injected()
	}
	if tr != nil {
		for _, s := range tr.Spans() {
			out.spans = append(out.spans, fmt.Sprintf("%s %s %s n%d b%s m%d [%d %d] %v",
				s.Cat, s.Name, s.Tid, s.Node, s.Backend, s.MsgID, s.Start, s.End, s.Instant))
		}
		slices.Sort(out.spans)
	}
	return out
}

// workload submits w.ops offloads and logs when each settled and to what.
func (w debtWorld) workload(p *machine.Proc, m *machine.Machine, rt *offload.Runtime, out *debtOutcome) {
	r := rand.New(rand.NewSource(w.seed * 31))
	nodes := rt.NumNodes() - 1
	arg := func() (offload.NodeID, offload.Functor[[]float64]) {
		node := offload.NodeID(1 + r.Intn(nodes))
		return node, debtWork.Bind(int64(1+r.Intn(64)), int64(1+r.Intn(40)))
	}
	logf := func(i int, v []float64, err error) {
		sum := 0.0
		for _, x := range v {
			sum += x
		}
		out.log = append(out.log, fmt.Sprintf("%d at %d: %d values sum %g, %v", i, p.Now(), len(v), sum, err))
	}
	// Between offloads the host moves data to and from a VE now and then:
	// over dmab and veob its transfers cross the link whose op counter the
	// VE's flag loads share (pcie.Link.Err). They draw from a stream of their
	// own, so a world's offloads are what they were.
	xr := rand.New(rand.NewSource(w.seed ^ 0x7a5f))
	bufs := map[offload.NodeID]offload.BufferPtr[float64]{}
	transfer := func() {
		if xr.Intn(3) != 0 {
			return
		}
		node := offload.NodeID(1 + xr.Intn(nodes))
		b, ok := bufs[node]
		var err error
		if !ok {
			if b, err = offload.Allocate[float64](rt, node, 4); err == nil {
				bufs[node] = b
			}
		}
		if err == nil {
			err = errors.Join(offload.Put(rt, []float64{1, 2, 3, 4}, b), offload.Get(rt, b, make([]float64, 4)))
		}
		out.log = append(out.log, fmt.Sprintf("transfer to %d at %d: %v", node, p.Now(), err))
	}
	gap := func() {
		if d := r.Intn(4); d > 0 {
			p.Sleep(simtime.Duration(r.Intn(2000*d)) * simtime.Nanosecond)
		}
		transfer()
	}
	kill := func(i int) {
		if i == w.kill {
			m.Cards[0].Kill()
		}
	}
	switch w.submit {
	case "sync":
		for i := range w.ops {
			kill(i)
			node, fn := arg()
			v, err := offload.Sync(rt, node, fn)
			logf(i, v, err)
			gap()
		}
	case "async", "batch":
		var b *core.Batcher
		if w.submit == "batch" {
			b = core.NewBatcher(rt)
		}
		for i := 0; i < w.ops; {
			var futs []*offload.Future[[]float64]
			for k := 1 + r.Intn(6); k > 0 && i < w.ops; k-- {
				kill(i)
				node, fn := arg()
				if b != nil {
					futs = append(futs, core.BatchAdd(b, node, fn))
				} else {
					futs = append(futs, offload.Async(rt, node, fn))
				}
				i++
				gap()
			}
			if b != nil {
				b.FlushAll()
			}
			for j, f := range futs {
				v, err := f.Get()
				logf(i-len(futs)+j, v, err)
			}
		}
	case "gateway":
		var vs []offload.NodeID
		for n := 1; n <= nodes; n++ {
			vs = append(vs, offload.NodeID(n))
		}
		g, err := gateway.New[[]float64](rt, vs, gateway.Config{Window: 1 + r.Intn(4), MaxBatch: 1 + r.Intn(4)})
		if err != nil {
			out.err = err.Error()
			return
		}
		var tks []*gateway.Ticket[[]float64]
		for i := range w.ops {
			kill(i)
			_, fn := arg()
			tk, err := g.Submit(0, gateway.Class(r.Intn(int(gateway.NumClasses))), fn)
			if err != nil {
				out.log = append(out.log, fmt.Sprintf("%d refused at %d: %v", i, p.Now(), err))
				continue
			}
			tks = append(tks, tk)
			if r.Intn(3) == 0 {
				g.Poll()
			}
			gap()
		}
		g.Drain()
		for i, tk := range tks {
			lat, _ := tk.Latency()
			v, err := tk.Value()
			logf(i, v, err)
			out.log[len(out.log)-1] += fmt.Sprintf(" latency %d", lat)
		}
	}
}

// TestDebtEquivalence runs generated worlds with the debt and with every
// charge sleeping at once, and requires identical outcomes.
func TestDebtEquivalence(t *testing.T) {
	for seed := range int64(simtime.DebtWorlds) {
		w := genDebtWorld(seed)
		checkDebtWorld(t, w)
	}
}

func checkDebtWorld(t *testing.T, w debtWorld) {
	t.Helper()
	connected := w.connected(t)
	debt, eager := w.run(t, false, connected), w.run(t, true, connected)
	name := fmt.Sprintf("seed %d (%s, %d VEs, %s, traced %v)", w.seed, w.backend, w.ves, w.submit, w.traced)
	mustAgree(t, name, "with the debt", "charging eagerly", debt, eager, true)
	if w.traced {
		// The flows twin: an offload's trace ID travels beside its messages,
		// so arming flows may record flow events and nothing else.
		twin := w
		twin.flows = true
		mustAgree(t, name, "with flows off", "with flows armed", debt, twin.run(t, false, connected), true)
	}
	if w.polled && w.ves <= 2 && w.seed%2 == 0 {
		checkFlipped(t, w, debt, connected)
	}
}

// mustAgree fails unless runs a and b of world name had the same outcome:
// run error, every op's settle instant and result, loads and faults fired
// and, with spans, every span.
func mustAgree(t *testing.T, name, aName, bName string, a, b debtOutcome, spans bool) {
	t.Helper()
	if a.err != b.err {
		t.Fatalf("%s: run error %q %s, %q %s", name, a.err, aName, b.err, bName)
	}
	for i := range max(len(a.log), len(b.log)) {
		if i >= len(a.log) || i >= len(b.log) || a.log[i] != b.log[i] {
			t.Fatalf("%s: %d ops logged %s, %d %s; op %d differs:\n  %s %q\n  %s %q",
				name, len(a.log), aName, len(b.log), bName, i, aName, a.log[min(i, len(a.log)-1)], bName, b.log[min(i, len(b.log)-1)])
		}
	}
	if !slices.Equal(a.loads, b.loads) || a.injected != b.injected {
		t.Fatalf("%s: loads %v, %d faults %s; %v, %d %s", name, a.loads, a.injected, aName, b.loads, b.injected, bName)
	}
	if spans && !slices.Equal(a.spans, b.spans) {
		for i := range min(len(a.spans), len(b.spans)) {
			if a.spans[i] != b.spans[i] {
				t.Fatalf("%s: span %q %s, %q %s", name, a.spans[i], aName, b.spans[i], bName)
			}
		}
		t.Fatalf("%s: %d spans %s, %d %s", name, len(a.spans), aName, len(b.spans), bName)
	}
}

// checkFlipped runs w with its tracer flipped and requires what it ran with
// its own, out, but the spans.
func checkFlipped(t *testing.T, w debtWorld, out debtOutcome, connected simtime.Time) {
	t.Helper()
	flipped := w
	flipped.traced = !w.traced
	got := flipped.run(t, false, connected)
	name := fmt.Sprintf("seed %d (%s, %d VEs, %s)", w.seed, w.backend, w.ves, w.submit)
	untraced, traced := got, out
	if w.traced {
		untraced, traced = out, got
	}
	mustAgree(t, name, "untraced", "traced", untraced, traced, false)
}

// FuzzDebtEquivalence is TestDebtEquivalence over fuzzed seeds.
func FuzzDebtEquivalence(f *testing.F) {
	f.Add(int64(0))
	f.Fuzz(func(t *testing.T, seed int64) {
		checkDebtWorld(t, genDebtWorld(seed))
	})
}

// FuzzFaultPollEquivalence is the untraced-against-traced half of
// TestDebtEquivalence over fuzzed seeds: each seed draws a world and its
// fault plan, and the world runs with and without a tracer.
func FuzzFaultPollEquivalence(f *testing.F) {
	f.Add(int64(0))
	f.Fuzz(func(t *testing.T, seed int64) {
		w := genDebtWorld(seed)
		w.traced = false
		connected := w.connected(t)
		checkFlipped(t, w, w.run(t, false, connected), connected)
	})
}
