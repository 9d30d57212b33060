package main

import (
	"hamoffload/machine"
	"hamoffload/offload"
	"hamoffload/sched"
)

// vectorKernel charges n units of vector work (one unit ≈ 3.3 µs on a VE)
// and returns a value the host can check. pipe-batch and serve-peak share it.
var vectorKernel = offload.NewFunc2[int64]("perf.vector",
	func(c *offload.Ctx, n, tag int64) (int64, error) {
		c.ChargeVector(n*6_000_000, n*750_000, 8)
		return vectorWant(n, tag), nil
	})

func vectorWant(n, tag int64) int64 { return 7*tag + n }

const (
	fleetVEs = 8   // pipe-batch and serve-peak run on the full A300-8
	waveSize = 512 // tasks per bulk-synchronous wave of pipe-batch
)

func fleetNodes() []offload.NodeID {
	nodes := make([]offload.NodeID, fleetVEs)
	for i := range nodes {
		nodes[i] = offload.NodeID(i + 1)
	}
	return nodes
}

// runPipeBatch is the bulk-synchronous closed loop: waves of 512 tasks
// sharded over 8 VEs by the scheduler and shipped in batch frames of 8, each
// wave fully harvested before the next is issued.
func runPipeBatch(r *round) error {
	rs := newRNG(r.seed, 4)
	units := make([]int64, r.ops)
	for i := range units {
		units[i] = int64(1 + rs.intn(4))
	}
	if err := r.newMachine(machine.Config{VEs: fleetVEs}, nil); err != nil {
		return err
	}
	return r.runMain(func(p *machine.Proc) error {
		rt, err := r.connect(false, machine.ProtocolOptions{
			Batch: offload.BatchPolicy{MaxMessages: 8},
		})
		if err != nil {
			return err
		}
		defer func() { _ = rt.Finalize() }()
		s, err := offload.NewScheduler(rt, fleetNodes(), sched.LeastInFlight())
		if err != nil {
			return err
		}
		for _, n := range s.Nodes() {
			if err := warmUp(rt, n); err != nil {
				return err
			}
		}

		lat := make([]machine.Duration, waveSize)
		r.beginTimed()
		for base := 0; base < len(units); base += waveSize {
			wave := units[base:min(base+waveSize, len(units))]
			t, issue := r.tick(), p.Now()
			futs := offload.MapFutures(s, len(wave), func(task int) offload.Functor[int64] {
				return vectorKernel.Bind(wave[task], int64(base+task))
			})
			for i, f := range futs {
				f.OnSettle(func() { lat[i] = p.Now().Sub(issue) })
			}
			vals, err := offload.GetAll(futs)
			r.spans.add("sched.Map", "sched", t, r.tick(), "timed", base)
			for i, v := range vals {
				r.done(lat[i], err == nil && v == vectorWant(wave[i], int64(base+i)))
			}
		}
		r.endTimed()
		r.layer["sched.wall_map_ns_per_op"] = r.perOp(r.spans.ns("sched.Map"))
		return nil
	})
}
