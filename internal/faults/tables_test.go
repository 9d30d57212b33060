package faults

import (
	"fmt"
	"sync"
	"testing"

	"hamoffload/internal/simtime"
)

// refInjector is the map-keyed injector the compiled tables replaced, kept
// as the oracle: it counts every hook call under map[refKey] and scans every
// rule, with no pre-check. The differential test below holds the shipped
// Injector to its decisions call by call.
type refKey struct {
	kind Kind
	site Site
	node int
}

type refInjector struct {
	seed     uint64
	rules    []Rule
	left     []int
	ops      map[refKey]uint64
	injected uint64
}

func newRef(p *Plan) *refInjector {
	in := &refInjector{
		seed:  p.Seed,
		rules: append([]Rule(nil), p.Rules...),
		left:  make([]int, len(p.Rules)),
		ops:   make(map[refKey]uint64),
	}
	for i, r := range in.rules {
		if r.Rate > 0 || r.Until > 0 {
			in.left[i] = -1
			continue
		}
		if r.Count <= 0 {
			in.left[i] = 1
		} else {
			in.left[i] = r.Count
		}
	}
	return in
}

func (in *refInjector) fire(kind Kind, site Site, node int, now simtime.Time) (Rule, uint64, bool) {
	key := refKey{kind, site, node}
	op := in.ops[key]
	in.ops[key] = op + 1
	for i := range in.rules {
		r := &in.rules[i]
		if r.Kind != kind {
			continue
		}
		if r.Site != SiteAny && r.Site != site {
			continue
		}
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
		return *r, op, true
	}
	return Rule{}, op, false
}

func (in *refInjector) transferError(now simtime.Time, site Site, node int) *Error {
	if _, op, ok := in.fire(DMAError, site, node, now); ok {
		return &Error{Kind: DMAError, Site: site, Node: node, Op: op}
	}
	return nil
}

func (in *refInjector) corrupt(now simtime.Time, site Site, node int, n int64) int64 {
	if n <= 8 {
		return -1
	}
	if _, op, ok := in.fire(BitFlip, site, node, now); ok {
		return int64(mix(in.seed, uint64(BitFlip), uint64(site), uint64(node), op) % uint64(n))
	}
	return -1
}

func (in *refInjector) stallDelay(now simtime.Time, node int) simtime.Duration {
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

func (in *refInjector) slowDelay(now simtime.Time, site Site, node int, base simtime.Duration) simtime.Duration {
	var extra simtime.Duration
	if r, _, ok := in.fire(SlowDown, site, node, now); ok && r.Factor > 1 && base > 0 {
		extra += simtime.Duration(float64(base) * (r.Factor - 1))
	}
	if r, op, ok := in.fire(Jitter, site, node, now); ok && r.JitterMax > 0 {
		h := mix(in.seed, uint64(Jitter), uint64(site)<<16|uint64(node), op)
		extra += simtime.Duration(h % uint64(r.JitterMax))
	}
	return extra
}

func (in *refInjector) crashNow(now simtime.Time, node int) bool {
	_, _, ok := in.fire(Crash, SiteVEOS, node, now)
	return ok
}

func (in *refInjector) linkError(now simtime.Time, node int) *Error {
	if _, op, ok := in.fire(LinkDown, SiteAny, node, now); ok {
		return &Error{Kind: LinkDown, Site: SiteAny, Node: node, Op: op}
	}
	return nil
}

func (in *refInjector) connReset(node int) bool {
	_, _, ok := in.fire(ConnReset, SiteConn, node, 0)
	return ok
}

// gen is a splitmix64 stream over the package's own mix.
type gen struct{ seed, n uint64 }

func (g *gen) next() uint64        { g.n++; return mix(g.seed, g.n) }
func (g *gen) intn(n int) int      { return int(g.next() % uint64(n)) }
func (g *gen) chance(pct int) bool { return g.intn(100) < pct }

// Node ids reach past what any rule lists, so the counter slices of
// any-node rules must grow; maxNode also bounds the listed nodes.
const maxNode = 20

// genPlan draws 1–7 rules over every kind, all three scheduling modes,
// SiteAny and specific sites, AnyNode and specific nodes. Few kinds against
// many rules makes same-kind overlap the common case.
func genPlan(g *gen) *Plan {
	p := &Plan{Seed: g.next()}
	kinds := int(Jitter)
	if g.chance(50) {
		kinds = 1 + g.intn(3) // force overlapping same-kind rules
	}
	first := 1 + g.intn(int(Jitter))
	for n := 1 + g.intn(7); n > 0; n-- {
		r := Rule{
			Kind: Kind((first+g.intn(kinds)-1)%int(Jitter) + 1),
			Node: AnyNode,
		}
		if g.chance(60) {
			r.Site = Site(1 + g.intn(numSites-1))
		}
		if g.chance(60) {
			r.Node = g.intn(maxNode / 2)
		}
		switch g.intn(3) {
		case 0:
			r.Rate = float64(1+g.intn(9)) / 10
			if g.chance(30) {
				r.From = simtime.Time(g.intn(500))
				r.Until = r.From + simtime.Time(1+g.intn(500))
			}
		case 1:
			r.From = simtime.Time(g.intn(500))
			r.Until = r.From + simtime.Time(1+g.intn(500))
		default:
			r.AfterOp = uint64(g.intn(6))
			r.Count = g.intn(5)
			r.Every = uint64(g.intn(4))
		}
		r.StallFor = simtime.Duration(g.intn(2) * (1 + g.intn(100)))
		r.Factor = float64(g.intn(5))
		r.JitterMax = simtime.Duration(g.intn(3) * (1 + g.intn(1000)))
		p.Rules = append(p.Rules, r)
	}
	return p
}

// TestCompiledTablesMatchMapKeyedReference drives the shipped injector and
// the map-keyed reference with the same generated op streams and demands the
// same answer from every single call: fired or not, the rule's effect (delay,
// stall length), Error.Op, Corrupt's offset, and the running Injected().
func TestCompiledTablesMatchMapKeyedReference(t *testing.T) {
	const plans, calls = 400, 600
	for seed := uint64(1); seed <= plans; seed++ {
		g := &gen{seed: seed}
		plan := genPlan(g)
		in, ref := New(plan), newRef(plan)
		sameErr := func(call int, what string, got error, want *Error) {
			t.Helper()
			if (got == nil) != (want == nil) {
				t.Fatalf("plan %d call %d %s: got %v, reference %v\nplan: %+v", seed, call, what, got, want, *plan)
			}
			if want != nil && *got.(*Error) != *want {
				t.Fatalf("plan %d call %d %s: got %+v, reference %+v\nplan: %+v", seed, call, what, got, want, *plan)
			}
		}
		var now simtime.Time
		for c := 0; c < calls; c++ {
			now += simtime.Time(g.intn(4))
			site := Site(1 + g.intn(numSites-1))
			node := g.intn(maxNode)
			switch g.intn(9) {
			case 0:
				sameErr(c, "TransferError", in.TransferError(now, site, node), ref.transferError(now, site, node))
			case 1:
				n := int64(g.intn(64))
				if got, want := in.Corrupt(now, site, node, n), ref.corrupt(now, site, node, n); got != want {
					t.Fatalf("plan %d call %d Corrupt(%d): got %d, reference %d\nplan: %+v", seed, c, n, got, want, *plan)
				}
			case 2:
				if got, want := in.StallDelay(now, node), ref.stallDelay(now, node); got != want {
					t.Fatalf("plan %d call %d StallDelay: got %v, reference %v\nplan: %+v", seed, c, got, want, *plan)
				}
			case 3:
				base := simtime.Duration(g.intn(3) * 1000)
				if got, want := in.SlowDelay(now, site, node, base), ref.slowDelay(now, site, node, base); got != want {
					t.Fatalf("plan %d call %d SlowDelay: got %v, reference %v\nplan: %+v", seed, c, got, want, *plan)
				}
			case 4:
				if got, want := in.CrashNow(now, node), ref.crashNow(now, node); got != want {
					t.Fatalf("plan %d call %d CrashNow: got %v, reference %v\nplan: %+v", seed, c, got, want, *plan)
				}
			case 5:
				sameErr(c, "LinkError", in.LinkError(now, node), ref.linkError(now, node))
			case 6:
				if got, want := in.ConnReset(node), ref.connReset(node); got != want {
					t.Fatalf("plan %d call %d ConnReset: got %v, reference %v\nplan: %+v", seed, c, got, want, *plan)
				}
			case 7, 8:
				// An LHM load, left to the engine where QuietLoad says so:
				// one CountLoads, against the reference's literal load, which
				// must fire nothing — then, or at any time before the lapse.
				quiet, lapse := in.QuietLoad(now, node)
				at := now
				if quiet && lapse > now && g.chance(50) {
					at = now + simtime.Time(g.intn(int(lapse-now)))
				} else if quiet && lapse == 0 {
					at = now + simtime.Time(g.intn(2000))
				}
				if !quiet {
					gotSlow, gotErr := in.lhmLoad(now, node)
					wantSlow, wantErr := ref.lhmLoad(now, node)
					if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || gotSlow != wantSlow {
						t.Fatalf("plan %d call %d LHM load: got %v, %v, reference %v, %v\nplan: %+v", seed, c, gotErr, gotSlow, wantErr, wantSlow, *plan)
					}
					break
				}
				injected := ref.injected
				if slow, err := ref.lhmLoad(at, node); err != nil || slow != 0 || ref.injected != injected {
					t.Fatalf("plan %d call %d: QuietLoad(%v, %d) = quiet until %v, but a load at %v gets %v, %v\nplan: %+v",
						seed, c, now, node, lapse, at, err, slow, *plan)
				}
				in.CountLoads(node, 1)
			}
			if got := in.Injected(); got != ref.injected {
				t.Fatalf("plan %d call %d: Injected() = %d, reference %d\nplan: %+v", seed, c, got, ref.injected, *plan)
			}
		}
	}
}

// TestLinkErrorMatchesOnlySiteAnyRules pins the one hook that queries with
// SiteAny: a LinkDown rule naming a specific site never sees it.
func TestLinkErrorMatchesOnlySiteAnyRules(t *testing.T) {
	in := New(&Plan{Rules: []Rule{{Kind: LinkDown, Site: SitePCIe, Node: AnyNode, Count: 1}}})
	if err := in.LinkError(0, 0); err != nil {
		t.Fatalf("site-specific LinkDown rule fired on the SiteAny query: %v", err)
	}
	in = New(&Plan{Rules: []Rule{{Kind: LinkDown, Node: 30, Count: 1}}})
	if in.LinkError(0, 29) != nil || in.LinkError(0, 31) != nil {
		t.Fatal("LinkDown rule for node 30 fired on a neighbour")
	}
	if in.LinkError(0, 30) == nil {
		t.Fatal("LinkDown rule for node 30 did not fire")
	}
}

// TestQuietLoadFollowsWindows pins the read-only query a poll asks before it
// leaves an LHM load to the engine, against the rule list: only a rule whose
// time window (with or without Rate) does not hold now leaves the load quiet,
// until the next From; an op-scheduled rule or a Rate rule without a window
// never does; a rule reaches the load through SiteAny and AnyNode too, a
// LinkDown rule only through SiteAny; a rule of a kind the load does not pass
// (BitFlip, Stall, Crash, ConnReset), or for another site or node, never
// arms it; an empty window is quiet for good.
func TestQuietLoadFollowsWindows(t *testing.T) {
	const from, until = simtime.Time(100), simtime.Time(200)
	win := func(k Kind, s Site, node int) Rule {
		return Rule{Kind: k, Site: s, Node: node, From: from, Until: until}
	}
	for _, tc := range []struct {
		name  string
		rules []Rule
		now   simtime.Time
		quiet bool
		lapse simtime.Time
	}{
		{"no plan", nil, 0, true, 0},
		{"window ahead", []Rule{win(SlowDown, SiteLHM, 0)}, 0, true, from},
		{"window open", []Rule{win(SlowDown, SiteLHM, 0)}, from, false, 0},
		{"window's last instant", []Rule{win(Jitter, SiteLHM, 0)}, until - 1, false, 0},
		{"window over", []Rule{win(DMAError, SiteLHM, 0)}, until, true, 0},
		{"window and Rate ahead", []Rule{{Kind: DMAError, Site: SiteLHM, Rate: 0.5, From: from, Until: until}}, 0, true, from},
		{"window and Rate open", []Rule{{Kind: DMAError, Site: SiteLHM, Rate: 0.5, From: from, Until: until}}, from, false, 0},
		{"Rate without a window", []Rule{{Kind: Jitter, Site: SiteLHM, Rate: 0.5, JitterMax: 9}}, until, false, 0},
		{"op-scheduled", []Rule{{Kind: DMAError, Site: SiteLHM, AfterOp: 1 << 40}}, 0, false, 0},
		{"op-scheduled on another node", []Rule{{Kind: DMAError, Site: SiteLHM, Node: 1}}, 0, true, 0},
		{"op-scheduled at another site", []Rule{{Kind: DMAError, Site: SiteUserDMA, Node: AnyNode}}, 0, true, 0},
		{"AnyNode window ahead", []Rule{win(SlowDown, SiteAny, AnyNode)}, 50, true, from},
		{"AnyNode window open", []Rule{win(SlowDown, SiteAny, AnyNode)}, 150, false, 0},
		{"LinkDown at SiteAny, open", []Rule{win(LinkDown, SiteAny, 0)}, from, false, 0},
		{"LinkDown at SiteAny, op-scheduled", []Rule{{Kind: LinkDown, Node: AnyNode}}, 0, false, 0},
		{"LinkDown at SiteLHM never fires", []Rule{{Kind: LinkDown, Site: SiteLHM}}, 0, true, 0},
		{"kinds a load does not pass", []Rule{{Kind: BitFlip}, {Kind: Stall}, {Kind: Crash}, {Kind: ConnReset}}, 0, true, 0},
		{"empty window", []Rule{{Kind: SlowDown, Site: SiteLHM, From: until, Until: from}}, 0, true, 0},
		{"empty window and Rate", []Rule{{Kind: DMAError, Rate: 1, From: from, Until: from}}, from, true, 0},
		{"lapse is the next From", []Rule{
			win(SlowDown, SiteLHM, 0),
			{Kind: Jitter, Site: SiteLHM, From: 400, Until: 500},
			{Kind: DMAError, Site: SiteLHM, From: 300, Until: 350, Rate: 0.1},
			{Kind: LinkDown, Node: 0, From: 20, Until: 40},
		}, 250, true, 300},
		{"one window open among others", []Rule{
			{Kind: Jitter, Site: SiteLHM, From: 400, Until: 500},
			{Kind: LinkDown, Node: 0, From: 20, Until: 40},
		}, 30, false, 0},
		{"an armed rule after a window", []Rule{win(SlowDown, SiteLHM, 0), {Kind: Jitter, Site: SiteLHM}}, 0, false, 0},
	} {
		var in *Injector
		if tc.rules != nil {
			in = New(&Plan{Rules: tc.rules})
		}
		if quiet, lapse := in.QuietLoad(tc.now, 0); quiet != tc.quiet || lapse != tc.lapse {
			t.Errorf("%s: QuietLoad(%v, 0) = %v, %v; want %v, %v", tc.name, tc.now, quiet, lapse, tc.quiet, tc.lapse)
		}
		if in.Injected() != 0 {
			t.Errorf("%s: QuietLoad fired a rule", tc.name)
		}
	}
}

// lhmLoad is what dma.Instr.LoadWord asks at its fault sites, in its order:
// the link, the transfer, then the fail-slow hook; a failed check ends it.
func lhmLoad(now simtime.Time, node int, link, transfer func(simtime.Time, int) error,
	slow func(simtime.Time, int) simtime.Duration) (simtime.Duration, error) {
	if err := link(now, node); err != nil {
		return 0, err
	}
	if err := transfer(now, node); err != nil {
		return 0, err
	}
	return slow(now, node), nil
}

func (in *Injector) lhmLoad(now simtime.Time, node int) (simtime.Duration, error) {
	return lhmLoad(now, node, in.LinkError,
		func(now simtime.Time, node int) error { return in.TransferError(now, SiteLHM, node) },
		func(now simtime.Time, node int) simtime.Duration { return in.SlowDelay(now, SiteLHM, node, 700) })
}

func (in *refInjector) lhmLoad(now simtime.Time, node int) (simtime.Duration, error) {
	return lhmLoad(now, node,
		func(now simtime.Time, node int) error {
			if e := in.linkError(now, node); e != nil {
				return e
			}
			return nil
		},
		func(now simtime.Time, node int) error {
			if e := in.transferError(now, SiteLHM, node); e != nil {
				return e
			}
			return nil
		},
		func(now simtime.Time, node int) simtime.Duration { return in.slowDelay(now, SiteLHM, node, 700) })
}

// TestHooksAllocateNothingWhenNoRuleCanMatch pins the cost of an armed plan
// at a hook it cannot touch: no lock, no count, no allocation.
func TestHooksAllocateNothingWhenNoRuleCanMatch(t *testing.T) {
	in := New(&Plan{Rules: []Rule{
		{Kind: SlowDown, Site: SitePCIe, Node: 1, Factor: 4, Until: simtime.Time(simtime.Second)},
		{Kind: DMAError, Site: SitePrivDMA, Node: 1, Rate: 0.5},
		{Kind: BitFlip, Site: SitePrivDMA, Node: 1, Rate: 0.5},
		{Kind: LinkDown, Node: 1, Until: simtime.Time(simtime.Second)},
	}})
	var sink int64
	allocs := testing.AllocsPerRun(1000, func() {
		for _, at := range []struct {
			site Site
			node int
		}{{SiteUserDMA, 1}, {SitePrivDMA, 0}, {SitePCIe, 7}, {SiteLHM, 40}} {
			if in.TransferError(1, at.site, at.node) != nil || in.LinkError(1, at.node+2) != nil {
				t.Fatal("a rule fired at a hook it cannot match")
			}
			sink += int64(in.SlowDelay(1, SiteUserDMA, at.node, simtime.Microsecond))
			sink += in.Corrupt(1, SiteUserDMA, at.node, 64)
			if quiet, lapse := in.QuietLoad(2, at.node); quiet {
				in.CountLoads(at.node, 5)
				sink += int64(lapse)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("unmatched hooks allocate %.1f objects per run, want 0", allocs)
	}
	if in.Injected() != 0 {
		t.Fatalf("Injected() = %d after unmatched hooks", in.Injected())
	}
	_ = sink
}

// TestHooksAllocateNothingWhenRulesCanMatch pins the hooks a served request
// passes under rules that match it: serve-peak's SlowDown window on VE 0, a
// Stall window, a Crash that is armed but never fires and a ConnReset that
// fires every other op. Each one locks, counts and returns a value; none
// allocates.
func TestHooksAllocateNothingWhenRulesCanMatch(t *testing.T) {
	end := simtime.Time(simtime.Second)
	in := New(&Plan{Rules: []Rule{
		{Kind: SlowDown, Site: SiteAny, Node: 0, Factor: 4, Until: end},
		{Kind: Stall, Node: 0, Until: end},
		{Kind: Crash, Node: 0, AfterOp: 1 << 62},
		{Kind: ConnReset, Node: 0, Count: 1 << 30, Every: 2},
	}})
	var slow, stall simtime.Duration
	var crashes, resets int
	allocs := testing.AllocsPerRun(1000, func() {
		stall += in.StallDelay(1, 0)
		slow += in.SlowDelay(1, SiteVEOS, 0, simtime.Microsecond)
		if in.CrashNow(1, 0) {
			crashes++
		}
		if in.ConnReset(0) {
			resets++
		}
	})
	if allocs != 0 {
		t.Fatalf("hooks under matching rules allocate %.1f objects per run, want 0", allocs)
	}
	if runs := simtime.Duration(1001); slow != 3*simtime.Microsecond*runs || stall != end.Sub(1)*runs || crashes != 0 || resets != 501 {
		t.Fatalf("over 1001 runs: slow-down %v, stall %v, %d crashes, %d resets; want 3 µs and %v each, none and 501", slow, stall, crashes, resets, end.Sub(1))
	}
}

// TestHooksFromManyGoroutines hammers one injector from several goroutines,
// as tcpb and locb do: the pre-check reads the compiled tables without the
// lock while other goroutines count and grow under it. Run with -race. The
// total is checked too — every op-scheduled fire must happen exactly once.
func TestHooksFromManyGoroutines(t *testing.T) {
	const workers, iters = 8, 2000
	in := New(&Plan{Seed: 5, Rules: []Rule{
		{Kind: DMAError, Site: SiteConn, Node: AnyNode, AfterOp: 10, Count: 5, Every: 3},
		{Kind: ConnReset, Node: 3, AfterOp: 1, Count: 2},
		{Kind: SlowDown, Site: SiteConn, Node: 2, Factor: 2, Until: simtime.Time(simtime.Second)},
		{Kind: Jitter, Node: AnyNode, Rate: 0.5, JitterMax: simtime.Microsecond},
		{Kind: BitFlip, Site: SiteConn, Node: AnyNode, Rate: 0.1},
	}})
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				node := (w + i) % 40 // past every listed node: counters grow concurrently
				_ = in.TransferError(0, SiteConn, node)
				in.ConnReset(node % 5)
				in.SlowDelay(1, SiteConn, node%4, simtime.Microsecond)
				in.Corrupt(0, SiteConn, node, 128)
				in.StallDelay(0, node)
				_ = in.LinkError(0, node)
				in.CrashNow(0, node)
				if quiet, _ := in.QuietLoad(simtime.Time(i), node); quiet {
					in.CountLoads(node, 3)
				}
				in.Injected()
			}
		}(w)
	}
	wg.Wait()
	// Each of the 40 nodes has its own (DMAError, SiteConn, node) counter and
	// sees 400 ops, but the rule's Count is plan-wide: 5 fires in total. The
	// ConnReset rule fires twice on node 3.
	var dma, reset uint64 = 5, 2
	if got := in.Injected(); got < dma+reset {
		t.Fatalf("Injected() = %d, want at least the %d op-scheduled fires", got, dma+reset)
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.left[0] != 0 || in.left[1] != 0 {
		t.Fatalf("op-scheduled rules have %d and %d fires left, want 0 and 0", in.left[0], in.left[1])
	}
}
