package bench

import (
	"fmt"

	"hamoffload/internal/faults"
	"hamoffload/machine"
	"hamoffload/offload"
)

// Fault-tolerance overhead on the Fig. 9 empty-offload path: what does
// arming the retry machinery cost when nothing fails, and what does
// surviving an actually faulty substrate cost? Three configurations per
// protocol, all on the simulated clock and therefore deterministic:
//
//   - plain: the unmodified Fig. 9 measurement (no envelope bytes on the
//     wire — the nil-plan zero-cost baseline).
//   - armed: retries enabled but no fault plan; the delta is the pure
//     envelope + checksum + dedup bookkeeping overhead.
//   - faulty: retries enabled against injected DMA errors and payload bit
//     flips; the delta over armed is the price of the retries themselves.

// faultRetryPolicy is the retry policy the overhead rows run under.
func faultRetryPolicy() offload.FaultTolerance {
	return offload.FaultTolerance{
		MaxRetries:  6,
		BackoffBase: machine.Microsecond,
		BackoffMax:  20 * machine.Microsecond,
	}
}

// faultBenchPlan schedules steady fault pressure for the faulty rows: an
// op-scheduled transfer error roughly every 12th transport operation (well
// past the connect sequence) and seeded payload bit flips.
func faultBenchPlan(site faults.Site) *faults.Plan {
	return &faults.Plan{Seed: 0xFA17, Rules: []faults.Rule{
		{Kind: faults.DMAError, Site: site, Node: faults.AnyNode,
			AfterOp: 60, Every: 12, Count: 1 << 30},
		{Kind: faults.BitFlip, Node: faults.AnyNode, Rate: 0.02},
	}}
}

// measureFaulted times reps empty sync offloads over one protocol with the
// given retry policy and fault plan, returning the mean cost in simulated
// microseconds plus the run's retry and injection counters.
func measureFaulted(cfg Fig9Config, dmaProtocol bool, retry offload.FaultTolerance,
	plan *faults.Plan) (us float64, retries int64, injected uint64, err error) {
	cfg.fill()
	mcfg := cfg.machineConfig()
	mcfg.Faults = plan
	m, err := machine.New(mcfg)
	if err != nil {
		return 0, 0, 0, err
	}
	opts := machine.ProtocolOptions{
		Retry:          retry,
		OffloadTimeout: 50 * machine.Millisecond,
	}
	samples, err := emptyOffloads(m, dmaProtocol, opts, cfg.Warmup, cfg.Reps,
		func(rt *offload.Runtime) { retries = rt.Retries() })
	return meanUS(samples), retries, m.Timing.Faults.Injected(), err
}

// FaultOverhead runs the three configurations over both protocols.
func FaultOverhead(reps int) ([]AblationRow, error) {
	var rows []AblationRow
	for _, proto := range []struct {
		name string
		dma  bool
		site faults.Site
	}{
		{"VEO protocol", false, faults.SitePrivDMA},
		{"DMA protocol", true, faults.SiteUserDMA},
	} {
		cfg := Fig9Config{Reps: reps}
		plain, _, _, err := measureFaulted(cfg, proto.dma, offload.FaultTolerance{}, nil)
		if err != nil {
			return nil, fmt.Errorf("bench: %s plain: %w", proto.name, err)
		}
		armed, _, _, err := measureFaulted(cfg, proto.dma, faultRetryPolicy(), nil)
		if err != nil {
			return nil, fmt.Errorf("bench: %s armed: %w", proto.name, err)
		}
		faulty, retries, injected, err := measureFaulted(cfg, proto.dma, faultRetryPolicy(),
			faultBenchPlan(proto.site))
		if err != nil {
			return nil, fmt.Errorf("bench: %s faulty: %w", proto.name, err)
		}
		if injected == 0 {
			return nil, fmt.Errorf("bench: %s faulty row injected no faults", proto.name)
		}
		rows = append(rows,
			AblationRow{Config: proto.name + ", plain", Value: plain, Unit: "us/offload"},
			AblationRow{Config: proto.name + ", FT armed (no faults)", Value: armed, Unit: "us/offload"},
			AblationRow{Config: fmt.Sprintf("%s, faulty (%d faults, %d retries)",
				proto.name, injected, retries), Value: faulty, Unit: "us/offload"},
		)
	}
	return rows, nil
}
