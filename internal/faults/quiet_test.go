package faults_test

import (
	"fmt"
	"reflect"
	"testing"

	"hamoffload/internal/faults"
	"hamoffload/internal/simtime"
	"hamoffload/internal/topology"
	"hamoffload/internal/trace"
	"hamoffload/machine"
	"hamoffload/offload"
)

var quietSum = offload.NewFunc1[int64]("faults.quiet.sum",
	func(_ *offload.Ctx, n int64) (int64, error) { return n * (n + 1) / 2, nil })

// quietRun is what one run of the differential below can observe.
type quietRun struct {
	results  []string
	injected uint64
	ops      []uint64 // the four counters an LHM load advances, per VE
	loads    []int64  // LHM loads per VE
	events   uint64
	now      simtime.Time
}

// runQuiet connects two VEs over the DMA protocol and offloads to both, with
// pauses in which their flag polls idle, under plan. A traced run is never
// quiet: every flag load is the serve loop's own. In an untraced one, a flag
// poll outside the plan's windows parks on its watch and counts the loads it
// passed over when it wakes.
func runQuiet(t *testing.T, plan *faults.Plan, traced bool) quietRun {
	t.Helper()
	w := machine.World{Config: machine.Config{VEs: 2, Faults: plan}, DMA: true,
		Options: machine.ProtocolOptions{
			OffloadTimeout: 200 * machine.Microsecond,
			Retry:          offload.FaultTolerance{MaxRetries: 8, BackoffBase: machine.Microsecond, BackoffMax: 8 * machine.Microsecond},
		}}
	if traced {
		w = w.Tuned(func(tm *topology.Timing) { tm.Tracer = trace.NewTracer() })
	}
	var out quietRun
	m, err := w.Run(func(p *machine.Proc, m *machine.Machine, rt *offload.Runtime) error {
		for i := range 60 {
			v, err := offload.Sync(rt, offload.NodeID(1+i%2), quietSum.Bind(int64(i)))
			out.results = append(out.results, fmt.Sprintf("%v %d %v", p.Now(), v, err))
			p.Sleep(simtime.Duration(i%7) * 3 * simtime.Microsecond)
		}
		for _, c := range m.Cards {
			out.loads = append(out.loads, c.Process().Loads())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The counters are read once the serve loops have ended: a load in
	// flight has counted its ops at its issue in the loop, at its end or the
	// poll's wake where the poll parked — no rule can tell, since the poll
	// wakes before a window opens (dma.Instr.Quiet), but a read in between
	// could.
	in := m.Timing.Faults
	for ve := range m.Cards {
		out.ops = append(out.ops, in.Ops(faults.LinkDown, faults.SiteAny, ve), in.Ops(faults.DMAError, faults.SiteLHM, ve),
			in.Ops(faults.SlowDown, faults.SiteLHM, ve), in.Ops(faults.Jitter, faults.SiteLHM, ve))
	}
	out.injected, out.events, out.now = in.Injected(), m.Eng.Events(), m.Eng.Now()
	return out
}

// A quiet load a parked poll passes over outside a rule's window counts what
// the loop's own load counts, so what a rule reads inside its window —
// Error.Op, a Rate or Jitter draw — is the same either way: quiet and traced
// runs of windowed plans on the LHM site agree on every result, Injected,
// every op counter, the loads and the clock. Only the events differ: the
// traced loop's loads and gaps are events, the parked poll's are not.
func TestQuietLoadsCountAsLiteralOnes(t *testing.T) {
	var connected simtime.Time
	if _, err := (machine.World{Config: machine.Config{VEs: 2}, DMA: true}).Run(
		func(p *machine.Proc, _ *machine.Machine, _ *offload.Runtime) error {
			connected = p.Now()
			return nil
		}); err != nil {
		t.Fatal(err)
	}
	from, until := connected.Add(120*simtime.Microsecond), connected.Add(400*simtime.Microsecond)
	for _, tc := range []struct {
		name   string
		rules  []faults.Rule
		events uint64 // of the quiet run
	}{
		{"DMAError window", []faults.Rule{{Kind: faults.DMAError, Site: faults.SiteLHM, Node: 0, From: from, Until: until}}, 2391},
		{"DMAError window and Rate", []faults.Rule{{Kind: faults.DMAError, Site: faults.SiteLHM, Node: faults.AnyNode, Rate: 0.2, From: from, Until: until}}, 1696},
		{"Jitter and LinkDown windows", []faults.Rule{
			{Kind: faults.Jitter, Site: faults.SiteLHM, Node: 1, Rate: 0.5, JitterMax: 2 * simtime.Microsecond, From: from, Until: until},
			{Kind: faults.LinkDown, Node: 0, Rate: 0.1, From: until, Until: until.Add(100 * simtime.Microsecond)},
		}, 1213},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := &faults.Plan{Seed: 7, Rules: tc.rules}
			quiet := runQuiet(t, plan, false)
			traced := runQuiet(t, plan, true)
			if quiet.injected == 0 || quiet.events+uint64(quiet.loads[0]/2) > traced.events {
				t.Fatalf("%d faults fired, %d events quiet and %d traced for %d loads: the run tests nothing",
					quiet.injected, quiet.events, traced.events, quiet.loads[0])
			}
			if quiet.events != tc.events {
				t.Errorf("quiet run: %d events, want %d", quiet.events, tc.events)
			}
			quiet.events, traced.events = 0, 0
			if !reflect.DeepEqual(quiet, traced) {
				t.Errorf("quiet and traced runs differ:\n  quiet  %+v\n  traced %+v", quiet, traced)
			}
		})
	}
}
