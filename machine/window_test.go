package machine_test

import (
	"testing"

	"hamoffload/internal/core"
	"hamoffload/internal/simtime"
	"hamoffload/internal/topology"
	"hamoffload/internal/trace"
	"hamoffload/internal/vecore"
	"hamoffload/internal/veos"
	"hamoffload/machine"
	"hamoffload/offload"
)

// A served message's kernel charges are private time (simtime.Proc.Charge):
// they join the debt the VE worker owes for the message and pay with the one
// sleep before its result flag, and every simulated instant stays what it
// was when each charge slept on its own. The instants pinned below were
// measured on the code before any charge was deferred.

const winFlops, winBytes = 1 << 16, 1 << 14 // one frame entry's vector region, on all 8 cores

var (
	winCharge = offload.NewFunc1[int64]("machine.wincharge",
		func(c *offload.Ctx, i int64) (int64, error) {
			c.ChargeVector(winFlops, winBytes, 8)
			return i, nil
		})
	winEmpty = offload.NewFunc1[int64]("machine.winempty",
		func(c *offload.Ctx, i int64) (int64, error) { return i, nil })
	// winClock returns how far the runtime's clock moved over its charge.
	winClock = offload.NewFunc1[int64]("machine.winclock",
		func(c *offload.Ctx, _ int64) (int64, error) {
			before := c.Runtime().SimNow()
			c.ChargeVector(winFlops, winBytes, 8)
			return int64(c.Runtime().SimNow().Sub(before)), nil
		})
)

// winCost is one frame entry's charge.
var winCost = vecore.DefaultModel().VectorTime(winFlops, winBytes, 8)

// frameRun is what one batch frame of 8 entries took.
type frameRun struct {
	events  uint64       // engine events from the frame's issue to its results
	settled simtime.Time // when the host had every result
	results []int64
}

// runFrame connects one VE over the DMA protocol with frames of 8, lets
// before prepare the machine, and sends one frame of 8 entries of fn.
func runFrame(t *testing.T, tr *trace.Tracer, fn offload.Func1[int64, int64],
	before func(p *machine.Proc, m *machine.Machine, rt *offload.Runtime) error) frameRun {
	t.Helper()
	m := winMachine(t, tr)
	var r frameRun
	err := m.RunMain(func(p *machine.Proc) error {
		rt, err := machine.ConnectDMA(p, m, machine.ProtocolOptions{Batch: offload.BatchPolicy{MaxMessages: 8}})
		if err != nil {
			return err
		}
		defer func() { _ = rt.Finalize() }()
		if before != nil {
			if err := before(p, m, rt); err != nil {
				return err
			}
		}
		r, err = sendFrame(p, m, rt, fn)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func winMachine(t *testing.T, tr *trace.Tracer) *machine.Machine {
	t.Helper()
	timing := topology.DefaultTiming()
	timing.Tracer = tr
	m, err := machine.New(machine.Config{VEs: 1, Timing: &timing})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func sendFrame(p *machine.Proc, m *machine.Machine, rt *offload.Runtime, fn offload.Func1[int64, int64]) (frameRun, error) {
	b := core.NewBatcher(rt)
	var futs []*offload.Future[int64]
	start := m.Eng.Events()
	for i := range int64(8) {
		futs = append(futs, core.BatchAdd(b, 1, fn.Bind(i)))
	}
	b.FlushAll()
	res, err := offload.GetAll(futs)
	return frameRun{events: m.Eng.Events() - start, settled: p.Now(), results: res}, err
}

// TestFrameChargesAreOneSleep: a frame of 8 charging kernels settles when it
// did with a sleep per charge, and costs no event more than a frame of 8
// empty kernels: its charges join the debt the frame owes anyway (8 more
// with a sleep per charge).
func TestFrameChargesAreOneSleep(t *testing.T) {
	charged := runFrame(t, nil, winCharge, nil)
	empty := runFrame(t, nil, winEmpty, nil)
	if want := simtime.Time(915_293_210_555); charged.settled != want {
		t.Errorf("the frame settled at %d ps, want %d", charged.settled, want)
	}
	if d := charged.events - empty.events; d != 0 {
		t.Errorf("the charged frame took %d events more than the empty one, want 0 (its charges are owed)", d)
	}
	for i, v := range charged.results {
		if v != int64(i) {
			t.Fatalf("entry %d = %d", i, v)
		}
	}
}

// TestWindowSeesItsCharges: a kernel's clock reads include the charges the
// worker owes, and the execute span of each entry of a traced frame is where
// the charges put it, on the VE worker's track.
func TestWindowSeesItsCharges(t *testing.T) {
	for i, d := range runFrame(t, nil, winClock, nil).results {
		if simtime.Duration(d) != winCost {
			t.Errorf("entry %d: the kernel's clock moved %v over a charge of %v", i, simtime.Duration(d), winCost)
		}
	}

	tr := trace.NewTracer()
	runFrame(t, tr, winCharge, nil)
	var exec []trace.Span
	for _, s := range tr.Spans() {
		if s.Phase == trace.PhaseExecute && s.Node == 1 && s.Name == "execute fn:machine.wincharge" {
			exec = append(exec, s)
		}
	}
	if len(exec) != 8 {
		t.Fatalf("%d execute spans of the frame's entries, want 8", len(exec))
	}
	if want := simtime.Time(915_288_011_882); exec[0].Start != want {
		t.Errorf("the first entry starts at %d ps, want %d", exec[0].Start, want)
	}
	for i, s := range exec {
		if s.Dur() != winCost || (i > 0 && s.Start != exec[i-1].End) || s.Tid != "ve0-worker0" {
			t.Errorf("entry %d: span [%v, %v) on %q, want %v long, after the entry before, on ve0-worker0",
				i, s.Start, s.End, s.Tid, winCost)
		}
	}
}

// TestSecondContextDefersNothing: with a second live context on the card, a
// VEO kernel there contends for the cores with the frame's kernels, so no
// charge is owed: each takes the cores and sleeps, and both finish when they
// did with a sleep per charge.
func TestSecondContextDefersNothing(t *testing.T) {
	var veoStart, veoEnd, veoDone simtime.Time
	long := func(c *veos.Ctx, _ []uint64) (uint64, error) {
		veoStart = c.Now()
		c.ChargeVector(1<<28, 1<<20, 8)
		veoEnd = c.Now()
		return 0, nil
	}
	m := winMachine(t, nil)
	var r frameRun
	err := m.RunMain(func(p *machine.Proc) error {
		rt, err := machine.ConnectDMA(p, m, machine.ProtocolOptions{Batch: offload.BatchPolicy{MaxMessages: 8}})
		if err != nil {
			return err
		}
		defer func() { _ = rt.Finalize() }()
		second := m.Cards[0].Process().OpenContext(p)
		cmd := second.Submit(p, long, nil)
		p.Sleep(100 * machine.Microsecond) // the VEO kernel holds the cores
		if r, err = sendFrame(p, m, rt, winCharge); err != nil {
			return err
		}
		_, err = second.Wait(p, cmd)
		veoDone = p.Now()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	got := [4]simtime.Time{veoStart, veoEnd, r.settled, veoDone}
	if want := [4]simtime.Time{915_369_200_000, 915_516_259_383, 915_521_410_555, 915_541_410_555}; got != want {
		t.Errorf("VEO kernel [%d, %d) ps, frame settled %d, VEO wait done %d; want %d", got[0], got[1], got[2], got[3], want)
	}
}

// TestRecoveredCardDefersAgain: a killed process's context stops counting
// once its worker returns, so after RecoverNode the fresh process's frame
// owes its charges again: no event more than an empty frame.
func TestRecoveredCardDefersAgain(t *testing.T) {
	recovered := func(p *machine.Proc, m *machine.Machine, rt *offload.Runtime) error {
		m.Cards[0].Kill()
		return rt.RecoverNode(1)
	}
	charged := runFrame(t, nil, winCharge, recovered)
	empty := runFrame(t, nil, winEmpty, recovered)
	if want := simtime.Time(1_830_570_410_555); charged.settled != want {
		t.Errorf("after recovery the frame settled at %d ps, want %d", charged.settled, want)
	}
	if d := charged.events - empty.events; d != 0 {
		t.Errorf("after recovery the charged frame took %d events more than the empty one, want 0", d)
	}
}
