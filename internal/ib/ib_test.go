package ib

import (
	"testing"

	"hamoffload/internal/simtime"
	"hamoffload/internal/units"
)

func TestSendLatencyAndBandwidth(t *testing.T) {
	eng := simtime.NewEngine()
	f, err := NewFabric(eng, 2, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var small, large simtime.Duration
	eng.Spawn("sender", func(p *simtime.Proc) {
		s := p.Now()
		if err := f.Send(p, 0, 1, 8); err != nil {
			t.Error(err)
		}
		small = p.Now().Sub(s)
		s = p.Now()
		if err := f.Send(p, 0, 1, (64 * units.MiB).Int64()); err != nil {
			t.Error(err)
		}
		large = p.Now().Sub(s)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Small message ≈ latency + overheads ≈ 2.1 µs.
	if us := small.Microseconds(); us < 1.5 || us > 3 {
		t.Errorf("small message = %.2f us, want ≈2", us)
	}
	// Large message bandwidth ≈ 11 GiB/s.
	gibps := 64.0 / large.Seconds() / 1024
	if gibps < 10 || gibps > 11.5 {
		t.Errorf("large message bandwidth = %.2f GiB/s, want ≈11", gibps)
	}
}

func TestConcurrentSendsShareChannel(t *testing.T) {
	eng := simtime.NewEngine()
	f, err := NewFabric(eng, 2, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	n := (16 * units.MiB).Int64()
	var t1, t2 simtime.Time
	eng.Spawn("a", func(p *simtime.Proc) {
		if err := f.Send(p, 0, 1, n); err != nil {
			t.Error(err)
		}
		t1 = p.Now()
	})
	eng.Spawn("b", func(p *simtime.Proc) {
		if err := f.Send(p, 0, 1, n); err != nil {
			t.Error(err)
		}
		t2 = p.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if t2 < t1+simtime.Time(simtime.BytesOver(n, DefaultParams().Bandwidth))/2 {
		t.Errorf("same-channel sends did not serialize: %v vs %v", t1, t2)
	}
}

func TestDistinctRoutesIndependent(t *testing.T) {
	eng := simtime.NewEngine()
	f, err := NewFabric(eng, 3, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	n := (16 * units.MiB).Int64()
	var t1, t2 simtime.Time
	eng.Spawn("a", func(p *simtime.Proc) {
		if err := f.Send(p, 0, 1, n); err != nil {
			t.Error(err)
		}
		t1 = p.Now()
	})
	eng.Spawn("b", func(p *simtime.Proc) {
		if err := f.Send(p, 0, 2, n); err != nil {
			t.Error(err)
		}
		t2 = p.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Errorf("independent routes should finish together: %v vs %v", t1, t2)
	}
}

func TestValidation(t *testing.T) {
	eng := simtime.NewEngine()
	if _, err := NewFabric(eng, 1, DefaultParams()); err == nil {
		t.Error("single-host fabric accepted")
	}
	bad := DefaultParams()
	bad.Bandwidth = 0
	if _, err := NewFabric(eng, 2, bad); err == nil {
		t.Error("zero bandwidth accepted")
	}
	f, err := NewFabric(eng, 2, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	eng.Spawn("main", func(p *simtime.Proc) {
		if err := f.Send(p, 0, 0, 8); err == nil {
			t.Error("self-send accepted")
		}
		if err := f.Send(p, 0, 5, 8); err == nil {
			t.Error("out-of-range destination accepted")
		}
		if err := f.Send(p, 0, 1, -1); err == nil {
			t.Error("negative size accepted")
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}
