package vecore

import (
	"testing"
	"testing/quick"

	"hamoffload/internal/simtime"
	"hamoffload/internal/units"
)

// The default model is physical: an efficiency in (0, 1], a positive scalar
// IPC and a complete VE spec.
func TestDefaultModelValid(t *testing.T) {
	m := DefaultModel()
	if m.VectorEfficiency <= 0 || m.VectorEfficiency > 1 || m.ScalarIPC <= 0 {
		t.Errorf("efficiency %v, IPC %v", m.VectorEfficiency, m.ScalarIPC)
	}
	if m.Spec.PeakGFLOPS <= 0 || m.Spec.MemoryBandwidth <= 0 || m.Spec.Cores <= 0 {
		t.Errorf("incomplete VE spec %+v", m.Spec)
	}
}

func TestVectorTimeComputeBound(t *testing.T) {
	m := DefaultModel()
	// 1 GFLOP of pure compute on all 8 cores at 85 % of 2150.4 GFLOPS.
	flops := int64(1e9)
	d := m.VectorTime(flops, 0, 8)
	wantSec := float64(flops) / (2150.4e9 * 0.85)
	got := d.Seconds()
	if got < wantSec || got > wantSec*1.01+1e-6 {
		t.Errorf("compute-bound time = %v s, want ≈%v s", got, wantSec)
	}
}

func TestVectorTimeMemoryBound(t *testing.T) {
	m := DefaultModel()
	// STREAM-like: 1 GiB of traffic, negligible flops, all cores.
	bytes := units.GiB.Int64()
	d := m.VectorTime(0, bytes, 8)
	wantSec := float64(bytes) / (1228.8e9)
	got := d.Seconds()
	if got < wantSec*0.99 || got > wantSec*1.05 {
		t.Errorf("memory-bound time = %v s, want ≈%v s", got, wantSec)
	}
}

func TestVectorTimeScalesWithCores(t *testing.T) {
	m := DefaultModel()
	one := m.VectorTime(1e9, 0, 1)
	eight := m.VectorTime(1e9, 0, 8)
	ratio := float64(one-m.LaunchOverhead) / float64(eight-m.LaunchOverhead)
	if ratio < 7.5 || ratio > 8.5 {
		t.Errorf("1-core/8-core ratio = %v, want ≈8", ratio)
	}
	// Out-of-range core counts clamp rather than explode.
	if m.VectorTime(1e6, 0, 0) <= 0 || m.VectorTime(1e6, 0, 99) <= 0 {
		t.Error("clamped core counts must still give positive time")
	}
}

func TestScalarMuchSlowerThanVector(t *testing.T) {
	// The paper's point: scalar code on the VE is slow. 1e9 scalar ops take
	// ~0.71 s; the same work vectorised takes ~0.5 ms.
	m := DefaultModel()
	scalar := m.ScalarTime(1e9)
	vector := m.VectorTime(1e9, 0, 8)
	if scalar < 100*vector {
		t.Errorf("scalar %v should dwarf vector %v", scalar, vector)
	}
	if m.ScalarTime(0) != 0 || m.ScalarTime(-5) != 0 {
		t.Error("non-positive op counts should cost nothing")
	}
}

func TestLaunchOverheadApplied(t *testing.T) {
	m := DefaultModel()
	if d := m.VectorTime(0, 0, 8); d != m.LaunchOverhead {
		t.Errorf("empty kernel = %v, want launch overhead %v", d, m.LaunchOverhead)
	}
}

func TestHostModelAndSpeedup(t *testing.T) {
	ve := DefaultModel()
	host := DefaultHostModel()
	speedup := func(flops, bytes int64) float64 {
		return float64(host.VectorTime(flops, bytes, host.Spec.Cores)) /
			float64(ve.VectorTime(flops, bytes, ve.Spec.Cores))
	}
	// A memory-bound kernel should see roughly the HBM/DDR4 bandwidth ratio
	// (1228.8/128 ≈ 9.6×).
	s := speedup(0, units.GiB.Int64())
	if s < 7 || s > 12 {
		t.Errorf("memory-bound speedup = %v, want ≈9.6", s)
	}
	// A compute-bound kernel sees the FLOPS ratio (~2150/998 ≈ 2.2×).
	s = speedup(1e10, 0)
	if s < 1.5 || s > 3 {
		t.Errorf("compute-bound speedup = %v, want ≈2.2", s)
	}
}

func TestHostVectorTimePositive(t *testing.T) {
	h := DefaultHostModel()
	if h.VectorTime(1e6, 1e6, 12) <= 0 {
		t.Error("host kernel time must be positive")
	}
	if h.VectorTime(1e6, 0, 0) <= 0 {
		t.Error("clamped core count must still work")
	}
	var zero simtime.Duration
	if h.VectorTime(0, 0, 12) != zero {
		t.Error("empty host kernel should be free")
	}
}

// Property: kernel time is monotone in flops and bytes, and never below the
// launch overhead.
func TestVectorTimeMonotoneProperty(t *testing.T) {
	m := DefaultModel()
	f := func(f1, f2, b1, b2 uint32, cores uint8) bool {
		c := int(cores%8) + 1
		fa, fb := int64(f1), int64(f1)+int64(f2)
		ba, bb := int64(b1), int64(b1)+int64(b2)
		ta := m.VectorTime(fa, ba, c)
		tb := m.VectorTime(fb, bb, c)
		return tb >= ta && ta >= m.LaunchOverhead
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
