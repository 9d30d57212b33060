package bench

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"hamoffload/internal/simtime"
	"hamoffload/internal/units"
	"hamoffload/machine"
)

// fig10Small runs a reduced sweep for the shape tests (full range is
// exercised by the root-level benchmarks and cmd/hambench).
func fig10Small(t *testing.T) []Series {
	t.Helper()
	series, err := Fig10(machine.World{}, Fig10Config{
		MaxSize:     (16 * units.MiB).Int64(),
		InstMaxSize: (256 * units.KiB).Int64(),
		Reps:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return series
}

// TestFig10Shapes verifies the qualitative claims of §V-B on a reduced
// sweep: user DMA beats VEO everywhere, and SHM/LHM are slow in bulk but SHM
// wins for one VE→VH word. Where the curves saturate and cross is the
// calibration row's (Anchors).
func TestFig10Shapes(t *testing.T) {
	series := fig10Small(t)
	get := func(method, dir string) Series {
		for _, s := range series {
			if s.Method == method && s.Direction == dir {
				return s
			}
		}
		t.Fatalf("missing series %s %s", method, dir)
		return Series{}
	}
	veoUp, veoDown := get(MethodVEO, DirUp), get(MethodVEO, DirDown)
	dmaUp, dmaDown := get(MethodDMA, DirUp), get(MethodDMA, DirDown)
	shmUp, lhmDown := get(MethodInst, DirUp), get(MethodInst, DirDown)

	// "VE user DMA is always faster than VEO's read and write."
	for i, p := range dmaDown.Points {
		if v := veoDown.Points[i]; p.US >= v.US {
			t.Errorf("user DMA down not faster at %s: %.2f vs %.2f us", sizeLabel(p.Size), p.US, v.US)
		}
	}
	for i, p := range dmaUp.Points {
		if v := veoUp.Points[i]; p.US >= v.US {
			t.Errorf("user DMA up not faster at %s: %.2f vs %.2f us", sizeLabel(p.Size), p.US, v.US)
		}
	}

	// "Transferring data from the VE to the VH is in general faster." (For
	// VEO the direction flip only shows at >64 MiB where the read-path setup
	// amortises; the calibration row's Table IV peaks check the full size.)
	if dmaUp.Max().GiBps <= dmaDown.Max().GiBps {
		t.Error("user DMA up peak should exceed down peak")
	}

	// SHM stores beat user DMA for a single word.
	if shm, dma := shmUp.Points[0], dmaUp.Points[0]; shm.US >= dma.US {
		t.Errorf("SHM at %s = %.2f us, user DMA %.2f us: SHM should win", sizeLabel(shm.Size), shm.US, dma.US)
	}
	// LHM is the slowest bulk path.
	if p, ok := lhmDown.At(256 * 1024); ok {
		if v, _ := veoDown.At(256 * 1024); p.GiBps >= v.GiBps {
			t.Error("LHM should be far slower than VEO for bulk")
		}
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-machine sweeps")
	}
	t.Run("hugepages", func(t *testing.T) {
		rows, err := AblateHugePages(machine.World{}, (16 * units.MiB).Int64())
		if err != nil {
			t.Fatal(err)
		}
		// rows: [huge/4dma, huge/naive, 4k/4dma, 4k/naive]. 4 KiB pages with
		// the naive manager must be clearly slower than huge pages.
		if rows[3].Value >= rows[1].Value*0.9 {
			t.Errorf("4KiB naive (%.2f) should be well below huge naive (%.2f)",
				rows[3].Value, rows[1].Value)
		}
		// The 4dma manager rescues the 4 KiB case.
		if rows[2].Value <= rows[3].Value {
			t.Errorf("4dma (%.2f) should beat naive (%.2f) on 4KiB pages",
				rows[2].Value, rows[3].Value)
		}
	})
	t.Run("poll-interval", func(t *testing.T) {
		rows, err := AblatePollInterval(machine.World{}, []int64{50, 2000})
		if err != nil {
			t.Fatal(err)
		}
		if rows[0].Value >= rows[1].Value {
			t.Errorf("finer polling (%.2f us) should beat coarse (%.2f us)",
				rows[0].Value, rows[1].Value)
		}
	})
	t.Run("result-path", func(t *testing.T) {
		rows, err := AblateResultPath(machine.World{})
		if err != nil {
			t.Fatal(err)
		}
		// §V-B: SHM stores beat a DMA write for small results.
		if rows[0].Value >= rows[1].Value {
			t.Errorf("SHM result path (%.2f us) should beat DMA (%.2f us)",
				rows[0].Value, rows[1].Value)
		}
	})
	t.Run("buffer-count", func(t *testing.T) {
		rows, err := AblateBufferCount(machine.World{}, []int{1, 8}, 16)
		if err != nil {
			t.Fatal(err)
		}
		// With a single buffer every offload serialises on the slot; more
		// buffers let the pipeline overlap.
		if rows[1].Value >= rows[0].Value {
			t.Errorf("8 buffers (%.2f us) should beat 1 buffer (%.2f us)",
				rows[1].Value, rows[0].Value)
		}
	})
}

func TestRenderers(t *testing.T) {
	r := Fig9Result{
		VEONativeUS: 80, HAMVEOUS: 432, HAMDMAUS: 6.1,
		HAMVEOOverNative: 5.4, NativeOverDMA: 13.1, HAMVEOOverDMA: 70.8,
	}
	var buf bytes.Buffer
	RenderFig9(&buf, r)
	out := buf.String()
	for _, want := range []string{"HAM-Offload (VE DMA)", "70.8x", "5.4x"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig9 output missing %q:\n%s", want, out)
		}
	}

	series := []Series{
		{Method: MethodVEO, Direction: DirDown, Points: []Point{{Size: 8, GiBps: 0.0001, US: 100}, {Size: 4096, GiBps: 0.04, US: 101}}},
		{Method: MethodDMA, Direction: DirDown, Points: []Point{{Size: 8, GiBps: 0.002, US: 5}, {Size: 4096, GiBps: 0.8, US: 6}}},
	}
	buf.Reset()
	RenderFig10(&buf, series, 1024)
	if !strings.Contains(buf.String(), "VH=>VE") || !strings.Contains(buf.String(), "4KiB") {
		t.Errorf("Fig10 output malformed:\n%s", buf.String())
	}

	buf.Reset()
	RenderASCIIPlot(&buf, series, DirDown)
	if !strings.Contains(buf.String(), "log-log") {
		t.Errorf("ASCII plot malformed:\n%s", buf.String())
	}

	buf.Reset()
	if err := WriteCSV(&buf, series); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "method,direction,size_bytes") {
		t.Errorf("CSV header missing:\n%s", buf.String())
	}

	buf.Reset()
	RenderAblation(&buf, "Test", []AblationRow{{Config: "a", Value: 1.5, Unit: "us"}})
	if !strings.Contains(buf.String(), "1.500 us") {
		t.Errorf("ablation output malformed:\n%s", buf.String())
	}
}

// TestGranularitySweep ties the microbenchmark to application impact: the
// protocol gap collapses as kernels grow (§V-A's granularity discussion).
func TestGranularitySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-machine sweep")
	}
	rows, err := AblateGranularity(machine.World{}, []float64{0, 100, 5000})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Speedup < 40 {
		t.Errorf("empty-kernel speedup = %.1f, want the full protocol gap", rows[0].Speedup)
	}
	if rows[1].Speedup < 2 || rows[1].Speedup > 8 {
		t.Errorf("100us-kernel speedup = %.1f, want the paper-companion ~2.6x regime", rows[1].Speedup)
	}
	if rows[2].Speedup > 1.2 {
		t.Errorf("5ms-kernel speedup = %.1f, should be amortised away", rows[2].Speedup)
	}
	var buf bytes.Buffer
	RenderGranularity(&buf, rows)
	if !strings.Contains(buf.String(), "speedup") {
		t.Error("render output malformed")
	}
}

// TestTraceOffloadsProducesChromeJSON smoke-tests the trace facility end to
// end: both protocols leave their signature spans.
func TestTraceOffloadsProducesChromeJSON(t *testing.T) {
	var buf bytes.Buffer
	for _, dma := range []bool{false, true} {
		if err := traceOffloads(2, dma, &buf); err != nil {
			t.Fatal(err)
		}
	}
	out := buf.String()
	for _, want := range []string{"veo_write_mem", "user-dma", "dmab-poll-hit", "veob-poll-hit", "execute fn:bench.empty", `"ph":"X"`} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q", want)
		}
	}
}

// TestHistogramMeasurement checks the latency distributions agree with the
// bars they are drawn from.
func TestHistogramMeasurement(t *testing.T) {
	r, err := Fig9(machine.World{}, Fig9Config{Reps: 50})
	if err != nil {
		t.Fatal(err)
	}
	hists := r.Hists()
	for i, bar := range []float64{r.HAMVEOUS, r.HAMDMAUS} {
		h := hists[i]
		if h.Count() != 50 {
			t.Errorf("histogram %d: Count = %d", i, h.Count())
		}
		// The bar is the samples' exact average; Mean is the same sum
		// divided in whole picoseconds.
		samples := [][]simtime.Duration{r.HAMVEO, r.HAMDMA}[i]
		var sum simtime.Duration
		for _, s := range samples {
			sum += s
		}
		if bar != sum.Microseconds()/50 || h.Mean() != sum/50 {
			t.Errorf("histogram %d: mean = %d ps, bar %.6f us; the samples sum to %d ps", i, h.Mean(), bar, sum)
		}
		if h.Min() != slices.Min(samples) || h.Max() != slices.Max(samples) {
			t.Errorf("histogram %d: [%d, %d] ps, the samples span [%d, %d] ps", i, h.Min(), h.Max(), slices.Min(samples), slices.Max(samples))
		}
	}
	if mean := hists[1].Mean().Microseconds(); mean < 5 || mean > 8 {
		t.Errorf("DMA mean = %.2f us, want ≈6", mean)
	}
}

// TestNativeVsOffloadCrossover quantifies §I: with no scalar code native VE
// execution wins; a few percent of scalar work flips the balance to
// offloading — the motivation for low-overhead offloading on this platform.
func TestNativeVsOffloadCrossover(t *testing.T) {
	rows, err := NativeVsOffload(machine.World{}, NativeVsOffloadConfig{
		Fractions: []float64{0, 0.05, 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].OffloadWins {
		t.Error("pure vector code should favour native execution")
	}
	if !rows[1].OffloadWins || !rows[2].OffloadWins {
		t.Error("scalar-heavy code should favour offloading")
	}
	// The scalar-heavy gap should be large (the 1.4 GHz scalar pipeline vs
	// the host), not marginal.
	if rows[2].NativeUS < 5*rows[2].OffloadUS {
		t.Errorf("at 50%% scalar work native=%.0f offload=%.0f, expected a wide gap",
			rows[2].NativeUS, rows[2].OffloadUS)
	}
	var buf bytes.Buffer
	RenderNativeVsOffload(&buf, rows)
	if !strings.Contains(buf.String(), "winner") {
		t.Error("render malformed")
	}
}

// TestRemoteClusterExperiment checks the §VI-outlook numbers' shape: remote
// offloads cost more than local but stay the same order of magnitude, and
// the staged remote data path loses bandwidth to the extra IB hop.
func TestRemoteClusterExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster build")
	}
	r, err := Remote(machine.World{}, 60)
	if err != nil {
		t.Fatal(err)
	}
	if r.LocalUS < 5 || r.LocalUS > 8 {
		t.Errorf("local = %.2f us, want ≈6", r.LocalUS)
	}
	if r.RemoteUS < r.LocalUS+3 || r.RemoteUS > r.LocalUS+25 {
		t.Errorf("remote = %.2f us vs local %.2f", r.RemoteUS, r.LocalUS)
	}
	if r.PutRemoteGiB >= r.PutLocalGiB {
		t.Errorf("remote put %.2f should be below local %.2f GiB/s", r.PutRemoteGiB, r.PutLocalGiB)
	}
	if r.PutRemoteGiB < 2 {
		t.Errorf("remote put %.2f GiB/s implausibly low", r.PutRemoteGiB)
	}
	var buf bytes.Buffer
	RenderRemote(&buf, r)
	if !strings.Contains(buf.String(), "remote VE") {
		t.Error("render malformed")
	}
}

// TestPutGetTracksVEOCurve ties the public API data path to the Fig. 10
// VEO series it rides on.
func TestPutGetTracksVEOCurve(t *testing.T) {
	if testing.Short() {
		t.Skip("large transfers")
	}
	pts, err := PutGet(machine.World{}, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	last := pts[len(pts)-1] // 64 MiB
	if last.PutGiBps < 9 || last.PutGiBps > 10.5 {
		t.Errorf("64MiB put = %.2f GiB/s, want ≈9.8 (VEO write)", last.PutGiBps)
	}
	if last.GetGiBps < 9 || last.GetGiBps > 11 {
		t.Errorf("64MiB get = %.2f GiB/s, want ≈10.1 (VEO read)", last.GetGiBps)
	}
	// Bandwidth grows with size.
	for i := 1; i < len(pts); i++ {
		if pts[i].PutGiBps <= pts[i-1].PutGiBps {
			t.Errorf("put bandwidth not monotone at %d", pts[i].Size)
		}
	}
	var buf bytes.Buffer
	RenderPutGet(&buf, pts)
	if !strings.Contains(buf.String(), "put GiB/s") {
		t.Error("render malformed")
	}
}

// TestSocketReachesEveryRow checks two rows that once built their own
// machine: on the base World of -socket 1 every configuration pays the UPI
// hop of §V-A, so each costs more than at socket 0.
func TestSocketReachesEveryRow(t *testing.T) {
	socket1 := machine.World{Config: machine.Config{Socket: 1}}
	for _, row := range []struct {
		name string
		run  func(machine.World) ([]AblationRow, error)
	}{
		{"ablate-result-path", AblateResultPath},
		{"faults", func(w machine.World) ([]AblationRow, error) { return FaultOverhead(w, 20) }},
	} {
		t.Run(row.name, func(t *testing.T) {
			near, err := row.run(machine.World{})
			if err != nil {
				t.Fatal(err)
			}
			far, err := row.run(socket1)
			if err != nil {
				t.Fatal(err)
			}
			for i := range near {
				if far[i].Value <= near[i].Value {
					t.Errorf("%s: %.3f %s at socket 1, %.3f at socket 0", near[i].Config, far[i].Value, far[i].Unit, near[i].Value)
				}
			}
		})
	}
}
