package gateway_test

import (
	"encoding/json"
	"errors"
	"testing"

	"hamoffload/gateway"
	"hamoffload/internal/faults"
	"hamoffload/internal/topology"
	"hamoffload/internal/trace"
	"hamoffload/machine"
	"hamoffload/offload"
)

// gwWork is the test kernel: a small roofline-charged vector loop so
// offloads take a few microseconds of simulated time each.
var gwWork = offload.NewFunc1[offload.Unit]("gateway.test_work",
	func(c *offload.Ctx, n int64) (offload.Unit, error) {
		c.ChargeVector(n*100_000, n*12_500, 8)
		return offload.Unit{}, nil
	})

// withGateway runs fn on a fresh simulated machine with a DMA-connected
// runtime and a gateway over its VE nodes; tr, when non-nil, is the
// machine's tracer.
func withGateway[R any](t *testing.T, tr *trace.Tracer, ves int, cfg gateway.Config, fn func(p *machine.Proc, gw *gateway.Gateway[R])) {
	t.Helper()
	timing := topology.DefaultTiming()
	timing.Tracer = tr
	m, err := machine.New(machine.Config{VEs: ves, Timing: &timing})
	if err != nil {
		t.Fatalf("machine.New: %v", err)
	}
	err = m.RunMain(func(p *machine.Proc) error {
		rt, cerr := machine.ConnectDMA(p, m, machine.ProtocolOptions{})
		if cerr != nil {
			return cerr
		}
		defer func() { _ = rt.Finalize() }()
		nodes := make([]offload.NodeID, ves)
		for i := range nodes {
			nodes[i] = offload.NodeID(i + 1)
		}
		gw, gerr := gateway.New[R](rt, nodes, cfg)
		if gerr != nil {
			return gerr
		}
		fn(p, gw)
		return nil
	})
	if err != nil {
		t.Fatalf("RunMain: %v", err)
	}
}

func TestTenantQuotaRefill(t *testing.T) {
	cfg := gateway.Config{
		Tenants: []gateway.TenantConfig{
			{Name: "metered", Burst: 2, Refill: 10 * machine.Microsecond},
			{Name: "free"},
		},
	}
	withGateway(t, nil, 2, cfg, func(p *machine.Proc, gw *gateway.Gateway[offload.Unit]) {
		// Burst of 2 admits exactly 2.
		for i := 0; i < 2; i++ {
			if _, err := gw.Submit(0, gateway.LatencyCritical, gwWork.Bind(1)); err != nil {
				t.Fatalf("submit %d within burst: %v", i, err)
			}
		}
		if _, err := gw.Submit(0, gateway.LatencyCritical, gwWork.Bind(1)); !errors.Is(err, gateway.ErrQuota) {
			t.Fatalf("want ErrQuota past burst, got %v", err)
		}
		// The unmetered tenant is unaffected.
		if _, err := gw.Submit(1, gateway.Batch, gwWork.Bind(1)); err != nil {
			t.Fatalf("unmetered tenant rejected: %v", err)
		}
		// One Refill interval restores exactly one token.
		p.Sleep(10 * machine.Microsecond)
		if _, err := gw.Submit(0, gateway.LatencyCritical, gwWork.Bind(1)); err != nil {
			t.Fatalf("submit after refill: %v", err)
		}
		if _, err := gw.Submit(0, gateway.LatencyCritical, gwWork.Bind(1)); !errors.Is(err, gateway.ErrQuota) {
			t.Fatalf("want ErrQuota after spending refilled token, got %v", err)
		}
		// A long idle refills to Burst, not beyond.
		p.Sleep(100 * machine.Microsecond)
		for i := 0; i < 2; i++ {
			if _, err := gw.Submit(0, gateway.LatencyCritical, gwWork.Bind(1)); err != nil {
				t.Fatalf("submit %d after long idle: %v", i, err)
			}
		}
		if _, err := gw.Submit(0, gateway.LatencyCritical, gwWork.Bind(1)); !errors.Is(err, gateway.ErrQuota) {
			t.Fatalf("want ErrQuota: bucket must cap at Burst, got %v", err)
		}
		gw.Drain()
		r := gw.Report()
		if r.Tenants[0].Admitted != 5 || r.Tenants[0].Rejected != 3 {
			t.Fatalf("tenant 0 accounting = %+v, want 5 admitted / 3 rejected", r.Tenants[0])
		}
	})
}

func TestClassShareOverload(t *testing.T) {
	// MaxQueued 10 with 6:3:1 weights gives strict queue shares 6/3/1.
	cfg := gateway.Config{MaxQueued: 10, Window: 1, MaxBatch: 1}
	withGateway(t, nil, 1, cfg, func(p *machine.Proc, gw *gateway.Gateway[offload.Unit]) {
		// First best-effort issues immediately (window 1), second queues and
		// fills the class's share of 1, third must bounce.
		for i := 0; i < 2; i++ {
			if _, err := gw.Submit(0, gateway.BestEffort, gwWork.Bind(1)); err != nil {
				t.Fatalf("best-effort %d: %v", i, err)
			}
		}
		if _, err := gw.Submit(0, gateway.BestEffort, gwWork.Bind(1)); !errors.Is(err, gateway.ErrOverloaded) {
			t.Fatalf("want ErrOverloaded for best-effort past share, got %v", err)
		}
		// Batch share (3) is untouched by best-effort pressure.
		for i := 0; i < 3; i++ {
			if _, err := gw.Submit(0, gateway.Batch, gwWork.Bind(1)); err != nil {
				t.Fatalf("batch %d: %v", i, err)
			}
		}
		if _, err := gw.Submit(0, gateway.Batch, gwWork.Bind(1)); !errors.Is(err, gateway.ErrOverloaded) {
			t.Fatalf("want ErrOverloaded for batch past share, got %v", err)
		}
		// Latency-critical share (6) still has full headroom.
		for i := 0; i < 6; i++ {
			if _, err := gw.Submit(0, gateway.LatencyCritical, gwWork.Bind(1)); err != nil {
				t.Fatalf("latency-critical %d: %v", i, err)
			}
		}
		gw.Drain()
		r := gw.Report()
		if got := r.Classes[gateway.BestEffort].RejectedShare; got != 1 {
			t.Fatalf("best-effort share rejections = %d, want 1", got)
		}
		if got := r.Classes[gateway.Batch].RejectedShare; got != 1 {
			t.Fatalf("batch share rejections = %d, want 1", got)
		}
		if got := r.Classes[gateway.LatencyCritical].RejectedShare; got != 0 {
			t.Fatalf("latency-critical share rejections = %d, want 0", got)
		}
	})
}

func TestWorkStealing(t *testing.T) {
	// Pin every placement onto VE 1; VE 2 only gets work by stealing.
	cfg := gateway.Config{
		Window:    2,
		MaxBatch:  1,
		Placement: gateway.Affinity(func(task int) offload.NodeID { return 1 }),
	}
	withGateway(t, nil, 2, cfg, func(p *machine.Proc, gw *gateway.Gateway[offload.Unit]) {
		tks := make([]*gateway.Ticket[offload.Unit], 0, 16)
		for i := 0; i < 16; i++ {
			tk, err := gw.Submit(0, gateway.LatencyCritical, gwWork.Bind(1))
			if err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
			tks = append(tks, tk)
		}
		gw.Drain()
		if gw.Steals() == 0 {
			t.Fatal("expected the idle VE to steal from the pinned queue")
		}
		r := gw.Report()
		if r.VEs[1].StolenIn == 0 || r.VEs[1].Issued == 0 {
			t.Fatalf("VE 2 should have stolen and issued work: %+v", r.VEs[1])
		}
		if r.VEs[0].Issued+r.VEs[1].Issued != 16 {
			t.Fatalf("issued %d + %d, want 16 total", r.VEs[0].Issued, r.VEs[1].Issued)
		}
		for i, tk := range tks {
			if !tk.Done() || tk.Err() != nil {
				t.Fatalf("ticket %d not cleanly settled: done=%v err=%v", i, tk.Done(), tk.Err())
			}
		}
	})
}

// gwChecksum weighs every byte of its argument by position, so any change
// to the bytes changes the result.
var gwChecksum = offload.NewFunc1[int64]("gateway.test_checksum",
	func(c *offload.Ctx, b []byte) (int64, error) {
		c.ChargeVector(100_000, 12_500, 8)
		return checksum(b), nil
	})

func checksum(b []byte) int64 {
	var s int64
	for i, c := range b {
		s += int64(i+1) * int64(c)
	}
	return s
}

// TestSubmitCopiesArguments: a request carries the arguments it was
// submitted with — Bind copies them, as f2f's functor does — not the
// caller's memory. A batchable request queued behind a full window is
// encoded only when the window frees, during Drain; the caller reusing its
// buffer right after Submit must not change what the kernel sees.
func TestSubmitCopiesArguments(t *testing.T) {
	cfg := gateway.Config{Window: 1, MaxBatch: 4}
	withGateway(t, nil, 1, cfg, func(p *machine.Proc, gw *gateway.Gateway[int64]) {
		buf := []byte("the submitted bytes")
		want := checksum(buf)
		var tks []*gateway.Ticket[int64]
		for i := 0; i < 2; i++ {
			tk, err := gw.Submit(0, gateway.Batch, gwChecksum.Bind(buf))
			if err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
			tks = append(tks, tk)
		}
		if gw.InFlight() != 1 || gw.Queued() != 1 {
			t.Fatalf("%d in flight, %d queued; want the second request waiting for the window", gw.InFlight(), gw.Queued())
		}
		copy(buf, "OVERWRITTEN BY THE CALLER")
		gw.Drain()
		for i, tk := range tks {
			if v, err := tk.Value(); !tk.Done() || err != nil || v != want {
				t.Errorf("request %d: kernel checksum %d (done %v, %v), want %d: the bytes changed after Submit", i, v, tk.Done(), err, want)
			}
		}
	})
}

func TestInvalidSubmits(t *testing.T) {
	withGateway(t, nil, 1, gateway.Config{}, func(p *machine.Proc, gw *gateway.Gateway[offload.Unit]) {
		if _, err := gw.Submit(1, gateway.Batch, gwWork.Bind(1)); !errors.Is(err, gateway.ErrTenant) {
			t.Fatalf("want ErrTenant for tenant out of range, got %v", err)
		}
		if _, err := gw.Submit(-1, gateway.Batch, gwWork.Bind(1)); !errors.Is(err, gateway.ErrTenant) {
			t.Fatalf("want ErrTenant for negative tenant, got %v", err)
		}
		if _, err := gw.Submit(0, gateway.Class(7), gwWork.Bind(1)); err == nil {
			t.Fatal("want error for invalid class")
		}
		gw.Drain()
	})
}

// runMixed drives one deterministic mixed workload, traced into tr when it
// is non-nil, and returns the report serialised to JSON.
func runMixed(t *testing.T, tr *trace.Tracer, seed uint64) []byte {
	t.Helper()
	cfg := gateway.Config{
		Window:   4,
		MaxBatch: 4,
		Tenants: []gateway.TenantConfig{
			{Name: "starved", Burst: 8, Refill: 20 * machine.Microsecond},
			{Name: "heavy"},
		},
		KeepSamples: true,
	}
	var out []byte
	withGateway(t, tr, 4, cfg, func(p *machine.Proc, gw *gateway.Gateway[offload.Unit]) {
		for i := 0; i < 600; i++ {
			r := faults.Mix(seed, uint64(i))
			class := gateway.Class(r % 3)
			tenant := int(r >> 8 % 2)
			_, err := gw.Submit(tenant, class, gwWork.Bind(int64(1+r%4)))
			if err != nil && !errors.Is(err, gateway.ErrQuota) && !errors.Is(err, gateway.ErrOverloaded) {
				t.Fatalf("submit %d: %v", i, err)
			}
			if r%5 == 0 {
				p.Sleep(machine.Duration(1+r%3) * machine.Microsecond)
				gw.Poll()
			}
		}
		gw.Drain()
		r := gw.Report()
		var sum int64
		for _, c := range r.Classes {
			if c.Completed != c.Admitted {
				t.Fatalf("class %s: completed %d != admitted %d", c.Class, c.Completed, c.Admitted)
			}
			if c.Failed != 0 {
				t.Fatalf("class %s: %d failures", c.Class, c.Failed)
			}
			sum += c.Admitted + c.RejectedQuota + c.RejectedShare
		}
		if sum != r.Submitted || r.Submitted != 600 {
			t.Fatalf("accounting leak: classes sum to %d, submitted %d", sum, r.Submitted)
		}
		var err error
		out, err = json.Marshal(r)
		if err != nil {
			t.Fatalf("marshal report: %v", err)
		}
	})
	return out
}

func TestMixedWorkloadDeterministic(t *testing.T) {
	a := runMixed(t, nil, 0xC0FFEE)
	b := runMixed(t, nil, 0xC0FFEE)
	if string(a) != string(b) {
		t.Fatal("same seed must produce a byte-identical report")
	}
	c := runMixed(t, nil, 0xBEEF)
	if string(a) == string(c) {
		t.Fatal("different seeds should not collide byte-for-byte")
	}
}

// TestTracedSeriesMatchReport: with a tracer armed the report is unchanged,
// and the gateway's series tally exactly what the report counts — every
// admission, rejection and stolen request.
func TestTracedSeriesMatchReport(t *testing.T) {
	tr := trace.NewTracer()
	traced := runMixed(t, tr, 0xC0FFEE)
	if string(traced) != string(runMixed(t, nil, 0xC0FFEE)) {
		t.Fatal("arming a tracer changed the report")
	}
	var r gateway.Report
	if err := json.Unmarshal(traced, &r); err != nil {
		t.Fatal(err)
	}
	var admitted, rejected, stolen int64
	for _, c := range r.Classes {
		admitted += c.Admitted
		rejected += c.RejectedQuota + c.RejectedShare
	}
	for _, v := range r.VEs {
		stolen += v.StolenIn
	}
	if rejected == 0 || stolen == 0 {
		t.Fatalf("workload exercises %d rejections and %d steals; want both", rejected, stolen)
	}
	sums := map[string]int64{}
	queued := map[int]bool{}
	for _, s := range tr.Series() {
		sums[s.Name()] += s.Total().Sum
		if s.Name() == trace.SeriesGatewayQueue {
			queued[s.Node()] = true
		}
	}
	for name, want := range map[string]int64{
		trace.SeriesGatewayAdmit:  admitted,
		trace.SeriesGatewayReject: rejected,
		trace.SeriesGatewaySteals: stolen,
	} {
		if sums[name] != want {
			t.Errorf("series %s sums to %d, report says %d", name, sums[name], want)
		}
	}
	if len(queued) != len(r.VEs) {
		t.Errorf("queue series on %d VEs, want %d", len(queued), len(r.VEs))
	}
}
