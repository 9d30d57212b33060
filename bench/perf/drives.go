package main

import (
	"fmt"
	"runtime"

	"hamoffload/internal/backend/slots"
	"hamoffload/internal/faults"
	"hamoffload/internal/ham"
	"hamoffload/internal/mem"
	"hamoffload/internal/simtime"
	"hamoffload/machine"
	"hamoffload/offload"
	"hamoffload/sched"
	"hamoffload/sched/health"
)

// An isolated layer drive loops on one package's public API with nothing else
// running, so a change to that layer shows at full size instead of diluted by
// a workload. Drives are workload-independent; every traced run repeats them.

const driveReps = 3

// drive times body(iters) driveReps times and returns the median ns per
// iteration.
func drive(iters int, body func(iters int) error) (float64, error) {
	runs := make([]float64, driveReps)
	for i := range runs {
		t := hostNow()
		if err := body(iters); err != nil {
			return 0, err
		}
		runs[i] = float64(hostNow()-t) / float64(iters)
	}
	return median(runs), nil
}

// driveSink keeps the compiler from discarding the cheap drives' results.
var driveSink uint64

// parks runs procs simulated processes that wake in strict rotation, one
// Proc.Sleep each: the engine's park/resume handoff and, with many procs, its
// event heap.
func parks(procs int) func(int) error {
	return func(iters int) error {
		eng := simtime.NewEngine()
		step := simtime.Duration(procs) * simtime.Nanosecond
		for i := 0; i < procs; i++ {
			phase := simtime.Duration(i) * simtime.Nanosecond
			eng.Spawn(fmt.Sprintf("park-%d", i), func(p *simtime.Proc) {
				p.Sleep(phase)
				for n := 0; n < iters/procs; n++ {
					p.Sleep(step)
				}
			})
		}
		err := eng.Run()
		eng.Shutdown()
		return err
	}
}

// eventPingPong bounces two processes off each other through one-shot
// Events: every iteration is one NewEvent, one Fire and one Wait.
func eventPingPong(iters int) error {
	eng := simtime.NewEngine()
	var toA, toB *simtime.Event
	eng.Spawn("pong", func(p *simtime.Proc) {
		for {
			ev := simtime.NewEvent(eng)
			toB = ev
			ev.Wait(p)
			toA.Fire()
		}
	})
	eng.Spawn("ping", func(p *simtime.Proc) {
		for n := 0; n < iters/2; n++ {
			ev := simtime.NewEvent(eng)
			toA = ev
			toB.Fire()
			ev.Wait(p)
		}
		eng.Stop()
	})
	err := eng.Run()
	eng.Shutdown()
	return err
}

const echoHandler = "perf.drive.echo"

func init() {
	ham.RegisterHandler(echoHandler, func(_ any, dec *ham.Decoder, enc *ham.Encoder) error {
		enc.PutI64(dec.I64() + 1)
		return dec.Err()
	})
}

// hamRoundTrip is the codec path of one offload without a transport:
// EncodeRequest → Binary.Dispatch → DecodeResponseInto.
func hamRoundTrip(bin *ham.Binary) func(int) error {
	return func(iters int) error {
		var dec ham.Decoder
		for i := 0; i < iters; i++ {
			v := int64(i)
			msg, err := bin.EncodeRequest(echoHandler, func(e *ham.Encoder) { e.PutI64(v) })
			if err != nil {
				return err
			}
			d, err := ham.DecodeResponseInto(&dec, bin.Dispatch(nil, msg))
			if err != nil {
				return err
			}
			if got := d.I64(); got != v+1 {
				return errWrong("ham round trip", i, got, v+1)
			}
		}
		return nil
	}
}

func slotFlags(iters int) error {
	for i := 0; i < iters; i++ {
		seq := uint32(i)
		n, ok := slots.Decode(slots.Encode(seq, i&0xffff), seq)
		if !ok || n != i&0xffff {
			return errWrong("slots flag", i, n, i&0xffff)
		}
		driveSink += uint64(n)
	}
	return nil
}

func memAllocFree(iters int) error {
	a, err := mem.NewAllocator("perf-drive", 0, 1<<24, 64)
	if err != nil {
		return err
	}
	for i := 0; i < iters; i++ {
		p, err := a.Alloc(4096)
		if err != nil {
			return err
		}
		if err := a.Free(p); err != nil {
			return err
		}
	}
	return nil
}

const copyBytes = 1 << 20

func memCopy(iters int) error {
	src, dst := mem.NewMemory("perf-src"), mem.NewMemory("perf-dst")
	if err := src.Map(0, copyBytes); err != nil {
		return err
	}
	if err := dst.Map(0, copyBytes); err != nil {
		return err
	}
	for i := 0; i < iters; i++ {
		if err := mem.Copy(dst, 0, src, 0, copyBytes); err != nil {
			return err
		}
	}
	return nil
}

func schedPick(iters int) error {
	pol := sched.LeastInFlight()
	nodes := fleetNodes()
	inflight := make([]int, len(nodes))
	for i := 0; i < iters; i++ {
		k := pol.Pick(i, nodes, inflight)
		inflight[k]++
		inflight[i%len(nodes)] /= 2
		driveSink += uint64(k)
	}
	return nil
}

func healthObserve(iters int) error {
	nodes := fleetNodes()
	t := health.New(health.Config{}, nodes, nil)
	for i := 0; i < iters; i++ {
		lat := simtime.Duration(5+i%7) * simtime.Microsecond
		t.Observe(nodes[i%len(nodes)], lat, false)
	}
	return nil
}

// faultChecks consults the injector the way every simulated transfer does;
// nil is the un-armed fast path, one window rule is serve-peak's plan.
func faultChecks(in *faults.Injector) func(int) error {
	return func(iters int) error {
		var now simtime.Time
		for i := 0; i < iters; i++ {
			now = now.Add(simtime.Nanosecond)
			d := in.SlowDelay(now, faults.SiteUserDMA, i&7, simtime.Microsecond)
			if err := in.TransferError(now, faults.SiteUserDMA, i&7); err != nil {
				return err
			}
			driveSink += uint64(d)
		}
		return nil
	}
}

// runDrives measures every D metric into out; div shortens every drive.
func runDrives(out map[string]float64, div int) error {
	var epoch simtime.Time
	armed := faults.New(&faults.Plan{Rules: []faults.Rule{
		{Kind: faults.SlowDown, Site: faults.SiteAny, Node: 0, Factor: 4, Until: epoch.Add(simtime.Second)},
	}})
	drives := []struct {
		name  string
		iters int
		body  func(int) error
	}{
		{"simtime.drive_ns_per_park", 400_000, parks(2)},
		{"simtime.drive_ns_per_park_64", 400_000, parks(64)},
		{"simtime.drive_ns_per_event_fire", 400_000, eventPingPong},
		{"slots.drive_ns_per_flag", 20_000_000, slotFlags},
		{"mem.drive_ns_per_alloc_free", 2_000_000, memAllocFree},
		{"sched.drive_ns_per_pick", 10_000_000, schedPick},
		{"health.drive_ns_per_observe", 5_000_000, healthObserve},
		{"faults.drive_ns_per_check_nil", 20_000_000, faultChecks(nil)},
		{"faults.drive_ns_per_check_armed", 5_000_000, faultChecks(armed)},
	}
	for _, d := range drives {
		ns, err := drive(d.iters/div, d.body)
		if err != nil {
			return fmt.Errorf("drive %s: %w", d.name, err)
		}
		out[d.name] = ns
	}

	hamIters := 1_000_000 / div
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ns, err := drive(hamIters, hamRoundTrip(ham.NewBinary("perf-drive")))
	if err != nil {
		return fmt.Errorf("drive ham: %w", err)
	}
	runtime.ReadMemStats(&ms1)
	out["ham.drive_ns_per_roundtrip"] = ns
	out["ham.drive_allocs_per_roundtrip"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(driveReps*hamIters)

	ns, err = drive(max(1000/div, 1), memCopy)
	if err != nil {
		return fmt.Errorf("drive mem.Copy: %w", err)
	}
	out["mem.drive_copy_gib_s"] = copyBytes / ns * 1e9 / (1 << 30)
	return nil
}

// calibrate measures the paper's headline number on a fresh 1-VE machine:
// the mean simulated cost of 100 empty synchronous offloads after warm-up.
func calibrate(veo bool) (float64, error) {
	const reps = 100
	r := newRound(0, reps, nil, nil)
	if err := r.newMachine(machine.Config{VEs: 1}, nil); err != nil {
		return 0, err
	}
	err := r.runMain(func(p *machine.Proc) error {
		rt, err := r.connect(veo, machine.ProtocolOptions{})
		if err != nil {
			return err
		}
		defer func() { _ = rt.Finalize() }()
		if err := warmUp(rt, 1); err != nil {
			return err
		}
		for i := 0; i < reps; i++ {
			s := p.Now()
			if _, err := offload.Sync(rt, 1, emptyKernel.Bind()); err != nil {
				return err
			}
			r.done(p.Now().Sub(s), true)
		}
		return nil
	})
	return meanUS(r.lat), err
}
