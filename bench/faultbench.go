package bench

import (
	"errors"
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

// FaultOverhead runs the three configurations over both protocols on w: six
// Worlds that differ only in protocol, retry policy and fault plan.
func FaultOverhead(w machine.World, reps int) ([]AblationRow, error) {
	var vs []variant
	for _, proto := range []struct {
		name string
		dma  bool
		site faults.Site
	}{
		{"VEO protocol", false, faults.SitePrivDMA},
		{"DMA protocol", true, faults.SiteUserDMA},
	} {
		plain := w
		plain.DMA = proto.dma
		plain.Options = machine.ProtocolOptions{OffloadTimeout: 50 * machine.Millisecond}
		armed := plain
		armed.Options.Retry = offload.FaultTolerance{
			MaxRetries: 6, BackoffBase: machine.Microsecond, BackoffMax: 20 * machine.Microsecond}
		faulty := armed
		faulty.Faults = faultBenchPlan(proto.site)
		vs = append(vs, variant{proto.name + ", plain", plain},
			variant{proto.name + ", FT armed (no faults)", armed}, variant{proto.name + ", faulty", faulty})
	}
	cfg := Fig9Config{Reps: reps}
	cfg.fill()
	return ablate("us/offload", vs, func(w machine.World, row *AblationRow) error {
		r, err := emptyOffloads(w, cfg.Warmup, cfg.Reps)
		row.Value = meanUS(r.samples)
		if err != nil || w.Faults == nil {
			return err
		}
		injected := r.m.Timing.Faults.Injected()
		if injected == 0 {
			return errors.New("the faulty row injected no faults")
		}
		row.Config += fmt.Sprintf(" (%d faults, %d retries)", injected, r.retries)
		return nil
	})
}
