package faults_test

import (
	"errors"
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
	// The counters are read once the serve loops have ended: unlike Injected
	// and LinkError (faults.Injector.Settles), Ops does not settle a parked
	// poll, whose loads it would read only at the poll's wake.
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
		{"DMAError window", []faults.Rule{{Kind: faults.DMAError, Site: faults.SiteLHM, Node: 0, From: from, Until: until}}, 2389},
		{"DMAError window and Rate", []faults.Rule{{Kind: faults.DMAError, Site: faults.SiteLHM, Node: faults.AnyNode, Rate: 0.2, From: from, Until: until}}, 763},
		{"Jitter and LinkDown windows", []faults.Rule{
			{Kind: faults.Jitter, Site: faults.SiteLHM, Node: 1, Rate: 0.5, JitterMax: 2 * simtime.Microsecond, From: from, Until: until},
			{Kind: faults.LinkDown, Node: 0, Rate: 0.1, From: until, Until: until.Add(100 * simtime.Microsecond)},
		}, 1078},
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

// A poll parked in a slow-down window passes its loads over with the window
// in their cost, and Injected counts each at its issue as the loop does: read
// at any instant — a load in flight or in a gap, before the window, in it
// and after it — it is what the traced run, issuing every load itself, reads.
func TestInjectedCountsTheLoadInFlight(t *testing.T) {
	var connected simtime.Time
	if _, err := (machine.World{Config: machine.Config{VEs: 1}, DMA: true}).Run(
		func(p *machine.Proc, _ *machine.Machine, _ *offload.Runtime) error {
			connected = p.Now()
			return nil
		}); err != nil {
		t.Fatal(err)
	}
	run := func(traced bool) (reads []uint64, loads int64, events uint64) {
		w := machine.World{Config: machine.Config{VEs: 1, Faults: &faults.Plan{Rules: []faults.Rule{{
			Kind: faults.SlowDown, Site: faults.SiteLHM, Node: 0, Factor: 2.3,
			From: connected.Add(100 * simtime.Microsecond), Until: connected.Add(400 * simtime.Microsecond),
		}}}}, DMA: true}
		if traced {
			w = w.Tuned(func(tm *topology.Timing) { tm.Tracer = trace.NewTracer() })
		}
		m, err := w.Run(func(p *machine.Proc, m *machine.Machine, rt *offload.Runtime) error {
			for i := range 400 {
				p.Sleep(simtime.Duration(1+i*7919%3000) * simtime.Nanosecond)
				reads = append(reads, m.Timing.Faults.Injected())
			}
			loads = m.Cards[0].Process().Loads()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return reads, loads, m.Eng.Events()
	}
	parked, loads, events := run(false)
	literal, literalLoads, literalEvents := run(true)
	if !reflect.DeepEqual(parked, literal) || loads != literalLoads {
		t.Fatalf("Injected read %v and %d loads parked; %v and %d issuing every load", parked, loads, literal, literalLoads)
	}
	if first, last := parked[0], parked[len(parked)-1]; first != 0 || last < 100 || events*2 > literalEvents {
		t.Fatalf("Injected went from %d to %d in %d events (%d issuing every load): the run tests nothing", first, last, events, literalEvents)
	}
}

// The link's op counter is the host's transfers' as well as the VE's flag
// loads': a transfer crossing the link while the VE's poll is parked reads
// the index the loop's loads would have left there, so a LinkDown rule that
// fires on it fails the same transfers with the same Error.Op whether the VE
// issues every load or parks past them. The window opens at instants across
// one Put, some while the idle VE's backed-off poll is parked past them; a
// Rate in a window or an op-scheduled rule reads the index of every load.
func TestHostTransfersShareTheLinkCounter(t *testing.T) {
	var connected simtime.Time
	if _, err := (machine.World{Config: machine.Config{VEs: 1}, DMA: true}).Run(
		func(p *machine.Proc, _ *machine.Machine, _ *offload.Runtime) error {
			connected = p.Now()
			return nil
		}); err != nil {
		t.Fatal(err)
	}
	at := func(us simtime.Duration) simtime.Time { return connected.Add(us * simtime.Microsecond) }
	rules := map[string]faults.Rule{
		"Rate in a window": {Kind: faults.LinkDown, Node: 0, Rate: 0.3, From: at(2000), Until: at(3000)},
		"op-scheduled":     {Kind: faults.LinkDown, Node: 0, AfterOp: 300, Every: 97, Count: 3},
	}
	for from := simtime.Duration(1990); from < 2100; from += 7 {
		rules[fmt.Sprintf("window from %dus", from)] = faults.Rule{Kind: faults.LinkDown, Node: 0, From: at(from), Until: at(2400)}
	}
	for name, rule := range rules {
		run := func(traced bool) (log []string, loads int64, injected uint64) {
			w := machine.World{Config: machine.Config{VEs: 1, Faults: &faults.Plan{Seed: 5, Rules: []faults.Rule{rule}}}, DMA: true}
			if traced {
				w = w.Tuned(func(tm *topology.Timing) { tm.Tracer = trace.NewTracer() })
			}
			m, err := w.Run(func(p *machine.Proc, m *machine.Machine, rt *offload.Runtime) error {
				buf, err := offload.Allocate[float64](rt, 1, 4)
				if err != nil {
					return err
				}
				src, dst := []float64{1, 2, 3, 4}, make([]float64, 4)
				for i := range 40 {
					p.Sleep(simtime.Duration(1+i*7919%5000) * simtime.Nanosecond)
					err := offload.Put(rt, src, buf)
					if i%3 == 0 {
						err = errors.Join(err, offload.Get(rt, buf, dst))
					}
					log = append(log, fmt.Sprintf("%d %v", int64(p.Now()), err))
				}
				loads = m.Cards[0].Process().Loads()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			return log, loads, m.Timing.Faults.Injected()
		}
		parked, loads, injected := run(false)
		literal, literalLoads, literalInjected := run(true)
		if !reflect.DeepEqual(parked, literal) || loads != literalLoads || injected != literalInjected {
			t.Errorf("%s: parked: %d loads, %d faults, %q\nliteral: %d loads, %d faults, %q", name, loads, injected, parked, literalLoads, literalInjected, literal)
		} else if injected == 0 {
			t.Errorf("%s: no transfer failed: the run tests nothing", name)
		}
	}
}
