package bench

import (
	"strings"
	"sync"
	"testing"

	"hamoffload/internal/topology"
	"hamoffload/internal/units"
	"hamoffload/machine"
)

// paperReadings measures every anchor on the default World once, for
// TestCalibration and the per-figure tests below. Fig. 9 runs at 20
// repetitions and the sweep at one; the simulation is deterministic, so only
// the averaging of the first few samples differs from the row's defaults.
var paperReadings = sync.OnceValues(func() ([]reading, error) {
	return measureAnchors(machine.World{}, Fig9Config{Reps: 20}, Fig10Config{Reps: 1})
})

// checkPaperAnchors fails t for every named anchor that the default World
// puts outside its band, and returns the readings by name.
func checkPaperAnchors(t *testing.T, names ...string) map[string]float64 {
	t.Helper()
	all, err := paperReadings()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]reading{}
	for _, r := range all {
		byName[r.Name] = r
	}
	var picked []reading
	measured := map[string]float64{}
	for _, n := range names {
		r, ok := byName[n]
		if !ok {
			t.Fatalf("no anchor %q", n)
		}
		picked = append(picked, r)
		measured[n] = r.Measured
	}
	if err := checkAnchors(picked); err != nil {
		t.Error(err)
	}
	return measured
}

// TestFig9ShapeMatchesPaper verifies the headline comparison: who wins, and
// by roughly what factor (§V-A).
func TestFig9ShapeMatchesPaper(t *testing.T) {
	const dma, veo, native = "HAM-Offload (VE DMA)", "HAM-Offload (VEO transfer)", "VEO (native offload)"
	us := checkPaperAnchors(t, dma, veo, native,
		"HAM-VEO / native VEO", "native VEO / HAM-DMA", "HAM-VEO / HAM-DMA")
	if !(us[dma] < us[native] && us[native] < us[veo]) {
		t.Errorf("ordering broken: DMA=%.1f native=%.1f HAM-VEO=%.1f", us[dma], us[native], us[veo])
	}
}

// TestFig9SecondSocket reproduces the §V-A UPI note: up to ~1 µs extra.
func TestFig9SecondSocket(t *testing.T) {
	checkPaperAnchors(t, "socket-1 penalty, HAM-DMA")
}

// TestTableIVPeaks checks the absolute peaks against the paper's table at a
// full sweep.
func TestTableIVPeaks(t *testing.T) {
	checkPaperAnchors(t, "peak VEO VH=>VE", "peak VEO VE=>VH", "peak user DMA VH=>VE",
		"peak user DMA VE=>VH", "peak LHM VH=>VE", "peak SHM VE=>VH")
}

// TestCalibration holds the model to the paper: the default World keeps
// every anchor in its band, and a cost-model constant pushed off its
// calibrated value fails a named anchor, cited with its section. The mutated
// worlds measure as paperReadings does but sweep up to 64 MiB: the anchor
// each must fail does not depend on the sweep's top end, and a full sweep
// holds 768 MiB of buffers.
func TestCalibration(t *testing.T) {
	check := func(t *testing.T, readings []reading, err error) error {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if len(readings) != len(Anchors) {
			t.Fatalf("%d readings for %d anchors", len(readings), len(Anchors))
		}
		return checkAnchors(readings)
	}

	t.Run("table", func(t *testing.T) {
		seen := map[string]bool{}
		for _, a := range Anchors {
			if seen[a.Name] {
				t.Errorf("anchor %q appears twice", a.Name)
			}
			seen[a.Name] = true
			if a.Source == "" || a.measure == nil || a.Lo > a.Hi {
				t.Errorf("anchor %q: source %q, band [%g, %g], measured: %t", a.Name, a.Source, a.Lo, a.Hi, a.measure != nil)
			}
			if outside := a.Paper < a.Lo || a.Paper > a.Hi; outside != (a.Deviation != "") {
				t.Errorf("anchor %q: paper %g outside its band [%g, %g] is %t, but its deviation is %q",
					a.Name, a.Paper, a.Lo, a.Hi, outside, a.Deviation)
			}
		}
	})

	t.Run("paper-world", func(t *testing.T) {
		readings, err := paperReadings()
		if err := check(t, readings, err); err != nil {
			t.Error(err)
		}
	})

	for _, m := range []struct {
		name           string
		tune           func(*topology.Timing)
		anchor, source string // an anchor the mutation must push out of its band
	}{
		{"pcie-latency-x1.5", func(t *topology.Timing) { t.PCIeLatency = t.PCIeLatency * 3 / 2 }, "native VEO / HAM-DMA", "§V-A Fig. 9"},
		{"priv-dma-read-extra-x2", func(t *topology.Timing) { t.PrivDMAReadExtra *= 2 }, "HAM-Offload (VEO transfer)", "§V-A Fig. 9"},
		{"lhm-per-word-x3", func(t *topology.Timing) { t.LHMPerWord *= 3 }, "peak LHM VH=>VE", "§V-B Table IV"},
		{"upi-latency-x0", func(t *topology.Timing) { t.UPILatency = 0 }, "socket-1 penalty, HAM-DMA", "§V-A"},
	} {
		t.Run(m.name, func(t *testing.T) {
			readings, err := measureAnchors(machine.World{}.Tuned(m.tune), Fig9Config{Reps: 20},
				Fig10Config{MaxSize: (64 * units.MiB).Int64(), Reps: 1})
			err = check(t, readings, err)
			if err == nil || !strings.Contains(err.Error(), m.anchor+" = ") || !strings.Contains(err.Error(), m.source+")") {
				t.Errorf("calibration error = %v, want one naming %q and %s", err, m.anchor, m.source)
			}
			t.Log(err)
		})
	}
}
