package pcie

import (
	"testing"
	"testing/quick"

	"hamoffload/internal/simtime"
	"hamoffload/internal/topology"
	"hamoffload/internal/units"
)

func defaultFabric(t *testing.T, eng *simtime.Engine) *Fabric {
	t.Helper()
	f, err := NewFabric(eng, topology.A300_8(), topology.DefaultTiming())
	if err != nil {
		t.Fatalf("NewFabric: %v", err)
	}
	return f
}

func TestWireTimeMatchesEfficiency(t *testing.T) {
	eng := simtime.NewEngine()
	tm := topology.DefaultTiming()
	l := NewLink(eng, 0, tm)
	// A large transfer should achieve ~91 % of the raw rate ≈ 13.4 GiB/s.
	n := (256 * units.MiB).Int64()
	d := l.WireTime(n)
	gibps := float64(n) / float64(units.GiB) / d.Seconds()
	if gibps < 13.2 || gibps > 13.6 {
		t.Errorf("large-transfer wire rate = %.2f GiB/s, want ≈13.4", gibps)
	}
	// A single byte still costs a full TLP header.
	one := l.WireTime(1)
	hdr := simtime.BytesOver(1+tm.PCIeTLPHeader.Int64(), tm.PCIeRawRate)
	if one != hdr {
		t.Errorf("WireTime(1) = %v, want %v", one, hdr)
	}
	if l.WireTime(0) != 0 || l.WireTime(-8) != 0 {
		t.Error("WireTime of non-positive size should be 0")
	}
}

func TestWireTimeMonotone(t *testing.T) {
	eng := simtime.NewEngine()
	l := NewLink(eng, 0, topology.DefaultTiming())
	prev := simtime.Duration(0)
	for n := int64(1); n <= 1<<28; n *= 2 {
		d := l.WireTime(n)
		if d <= prev {
			t.Fatalf("WireTime(%d) = %v not greater than WireTime(%d) = %v", n, d, n/2, prev)
		}
		prev = d
	}
}

func TestRoundTripLatency(t *testing.T) {
	// The paper's reference point: ~1.2 µs PCIe round trip from socket 0.
	eng := simtime.NewEngine()
	f := defaultFabric(t, eng)
	pa, err := f.PathFrom(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rtt := 2 * pa.OneWayLatency()
	us := simtime.Duration(rtt).Microseconds()
	if us < 1.0 || us > 1.4 {
		t.Errorf("PCIe RTT = %.2f us, want ≈1.2", us)
	}
}

func TestUPIHopAddsLatency(t *testing.T) {
	eng := simtime.NewEngine()
	f := defaultFabric(t, eng)
	local, err := f.PathFrom(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := f.PathFrom(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if remote.UPIHops != 1 || local.UPIHops != 0 {
		t.Fatalf("UPIHops = %d/%d, want 1/0", remote.UPIHops, local.UPIHops)
	}
	// §V-A: up to ~1 µs extra per offload (two crossings); one crossing adds
	// a few hundred ns.
	extra := remote.OneWayLatency() - local.OneWayLatency()
	if extra <= 0 || extra > simtime.Microsecond {
		t.Errorf("UPI extra latency = %v", extra)
	}
	// VE 4 lives on socket 1: the affinities invert.
	local4, err := f.PathFrom(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if local4.UPIHops != 0 {
		t.Errorf("socket 1 to VE 4 should be local")
	}
}

func TestDirectionsAreIndependent(t *testing.T) {
	// Full duplex: an up transfer does not wait behind a down transfer.
	eng := simtime.NewEngine()
	l := NewLink(eng, 0, topology.DefaultTiming())
	n := (1 * units.MiB).Int64()
	var downDone, upDone simtime.Time
	eng.Spawn("down", func(p *simtime.Proc) {
		l.Occupy(p, Down, n)
		downDone = p.Now()
	})
	eng.Spawn("up", func(p *simtime.Proc) {
		l.Occupy(p, Up, n)
		upDone = p.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if downDone != upDone {
		t.Errorf("full-duplex transfers should finish together: %v vs %v", downDone, upDone)
	}
}

func TestSameDirectionSerializes(t *testing.T) {
	eng := simtime.NewEngine()
	l := NewLink(eng, 0, topology.DefaultTiming())
	n := (1 * units.MiB).Int64()
	wire := l.WireTime(n)
	var done []simtime.Time
	for i := 0; i < 2; i++ {
		eng.Spawn("w", func(p *simtime.Proc) {
			if got := l.Occupy(p, Down, n); got != wire {
				t.Errorf("Occupy returned %v, want WireTime %v", got, wire)
			}
			done = append(done, p.Now())
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if done[0] != simtime.Time(wire) || done[1] != simtime.Time(2*wire) {
		t.Errorf("done = %v, want %v and %v", done, wire, 2*wire)
	}
}

func TestFabricErrors(t *testing.T) {
	eng := simtime.NewEngine()
	f := defaultFabric(t, eng)
	if _, err := f.Link(99); err == nil {
		t.Error("Link(99) should fail")
	}
	if _, err := f.PathFrom(0, 99); err == nil {
		t.Error("PathFrom to missing VE should fail")
	}
	if _, err := f.PathFrom(7, 0); err == nil {
		t.Error("PathFrom from missing socket should fail")
	}
	bad := topology.DefaultTiming()
	bad.PCIeRawRate = 0
	if _, err := NewFabric(eng, topology.A300_8(), bad); err == nil {
		t.Error("NewFabric with invalid timing should fail")
	}
}

// Property: WireTime is superadditive-safe — splitting a transfer never
// beats sending it whole (per-TLP overhead only grows with fragmentation) —
// and scales linearly beyond one payload.
func TestWireTimeFragmentationProperty(t *testing.T) {
	eng := simtime.NewEngine()
	l := NewLink(eng, 0, topology.DefaultTiming())
	f := func(a, b uint16) bool {
		n1, n2 := int64(a)+1, int64(b)+1
		whole := l.WireTime(n1 + n2)
		split := l.WireTime(n1) + l.WireTime(n2)
		return split >= whole
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
