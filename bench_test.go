// Benchmarks regenerating the paper's evaluation artefacts (§V). Each
// benchmark drives the calibrated simulation and reports the *simulated*
// metric the paper measured — sim-us/op for offload costs (Fig. 9),
// sim-GiB/s for transfer bandwidths (Fig. 10 / Table IV). Wall-clock ns/op
// is reported by the framework as usual but is not the number under study.
//
// Run with: go test -bench=. -benchmem
package hamoffload_test

import (
	"fmt"
	"sync"
	"testing"

	"hamoffload/bench"
	"hamoffload/internal/units"
	"hamoffload/machine"
)

// --- Fig. 9: function offload cost, VH to local VE -------------------------

// reportFig9 runs Fig. 9 on w and reports one of its bars.
func reportFig9(b *testing.B, w machine.World, bar func(bench.Fig9Result) float64) {
	b.Helper()
	reps := b.N
	if reps > 2000 {
		reps = 2000 // averages are converged long before this
	}
	r, err := bench.Fig9(w, bench.Fig9Config{Reps: reps})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(bar(r), "sim-us/op")
}

// BenchmarkFig9VEONative is the paper's baseline: a native veo_call_async
// offload of an empty kernel (paper: ≈80 µs, derived).
func BenchmarkFig9VEONative(b *testing.B) {
	reportFig9(b, machine.World{}, func(r bench.Fig9Result) float64 { return r.VEONativeUS })
}

// BenchmarkFig9HAMOverVEO is HAM-Offload with the §III-D VEO protocol
// (paper: 5.4× the native call ≈ 430 µs).
func BenchmarkFig9HAMOverVEO(b *testing.B) {
	reportFig9(b, machine.World{}, func(r bench.Fig9Result) float64 { return r.HAMVEOUS })
}

// BenchmarkFig9HAMOverDMA is HAM-Offload with the §IV-B DMA protocol
// (paper: 6.1 µs, 13.1× faster than native VEO).
func BenchmarkFig9HAMOverDMA(b *testing.B) {
	reportFig9(b, machine.World{}, func(r bench.Fig9Result) float64 { return r.HAMDMAUS })
}

// BenchmarkFig9SecondSocket offloads over UPI from socket 1 (§V-A: adds up
// to ~1 µs to the DMA measurement).
func BenchmarkFig9SecondSocket(b *testing.B) {
	socket1 := machine.World{Config: machine.Config{Socket: 1}}
	reportFig9(b, socket1, func(r bench.Fig9Result) float64 { return r.HAMDMAUS })
}

// --- Fig. 10 / Table IV: transfer bandwidth sweeps --------------------------

// The full sweep is expensive (real bytes move through the simulated
// memories), so it runs once and is shared by all bandwidth benchmarks.
var (
	sweepOnce sync.Once
	sweepData []bench.Series
	sweepErr  error
)

func sweep(b *testing.B) []bench.Series {
	b.Helper()
	sweepOnce.Do(func() {
		sweepData, sweepErr = bench.Fig10(machine.World{}, bench.Fig10Config{Reps: 2})
	})
	if sweepErr != nil {
		b.Fatal(sweepErr)
	}
	return sweepData
}

func reportSeries(b *testing.B, method, dir string, sizes []int64) {
	b.Helper()
	for _, s := range sweep(b) {
		if s.Method != method || s.Direction != dir {
			continue
		}
		for _, size := range sizes {
			p, ok := s.At(size)
			if !ok {
				b.Fatalf("no point at %d", size)
			}
			b.Run(units.Bytes(size).String(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					// The measurement is the deterministic simulated point;
					// iterations only steady the wall-clock column.
					_ = p
				}
				b.ReportMetric(p.GiBps, "sim-GiB/s")
				b.ReportMetric(p.US, "sim-us/op")
			})
		}
		return
	}
	b.Fatalf("missing series %s %s", method, dir)
}

var fig10Sizes = []int64{
	8, 256, (64 * units.KiB).Int64(), units.MiB.Int64(), (256 * units.MiB).Int64(),
}

var instSizes = []int64{8, 256, (64 * units.KiB).Int64(), (4 * units.MiB).Int64()}

// BenchmarkFig10VEOWrite is the "VEO Read/Write" series, VH ⇒ VE panel
// (paper peak: 9.9 GiB/s, saturating around 64 MiB).
func BenchmarkFig10VEOWrite(b *testing.B) {
	reportSeries(b, bench.MethodVEO, bench.DirDown, fig10Sizes)
}

// BenchmarkFig10VEORead is the VE ⇒ VH panel (paper peak: 10.4 GiB/s).
func BenchmarkFig10VEORead(b *testing.B) {
	reportSeries(b, bench.MethodVEO, bench.DirUp, fig10Sizes)
}

// BenchmarkFig10UserDMADown is "VE User DMA", VH ⇒ VE (paper peak:
// 10.6 GiB/s, near peak from ~1 MiB).
func BenchmarkFig10UserDMADown(b *testing.B) {
	reportSeries(b, bench.MethodDMA, bench.DirDown, fig10Sizes)
}

// BenchmarkFig10UserDMAUp is VE ⇒ VH (paper peak: 11.1 GiB/s).
func BenchmarkFig10UserDMAUp(b *testing.B) {
	reportSeries(b, bench.MethodDMA, bench.DirUp, fig10Sizes)
}

// BenchmarkFig10LHM is the "VE SHM/LHM" series, VH ⇒ VE direction: LHM
// loads, capped at 4 MiB as in the paper (peak 0.01 GiB/s).
func BenchmarkFig10LHM(b *testing.B) {
	reportSeries(b, bench.MethodInst, bench.DirDown, instSizes)
}

// BenchmarkFig10SHM is the VE ⇒ VH direction: SHM stores (peak 0.06 GiB/s;
// fastest method below 256 B).
func BenchmarkFig10SHM(b *testing.B) {
	reportSeries(b, bench.MethodInst, bench.DirUp, instSizes)
}

// BenchmarkTableIV reports the whole max-bandwidth table as metrics.
func BenchmarkTableIV(b *testing.B) {
	rows := bench.TableIV(sweep(b))
	for i := 0; i < b.N; i++ {
		_ = rows
	}
	for _, r := range rows {
		tag := map[string]string{
			bench.MethodVEO:  "veo",
			bench.MethodDMA:  "udma",
			bench.MethodInst: "inst",
		}[r.Method]
		b.ReportMetric(r.DownGiBps, fmt.Sprintf("%s-down-GiB/s", tag))
		b.ReportMetric(r.UpGiBps, fmt.Sprintf("%s-up-GiB/s", tag))
	}
}

// --- Ablations (DESIGN.md §5) -----------------------------------------------

// BenchmarkAblationResultPath compares SHM vs user-DMA result return in the
// DMA protocol (§V-B's small-message finding).
func BenchmarkAblationResultPath(b *testing.B) {
	rows, err := bench.AblateResultPath(machine.World{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		_ = rows
	}
	b.ReportMetric(rows[0].Value, "shm-sim-us/op")
	b.ReportMetric(rows[1].Value, "dma-sim-us/op")
}

// BenchmarkAblationBufferCount measures async pipelining against the slot
// count.
func BenchmarkAblationBufferCount(b *testing.B) {
	for _, n := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("buffers=%d", n), func(b *testing.B) {
			rows, err := bench.AblateBufferCount(machine.World{}, []int{n}, 32)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				_ = rows
			}
			b.ReportMetric(rows[0].Value, "sim-us/op")
		})
	}
}

// BenchmarkRemoteOffload reports the §VI-outlook cluster numbers: local and
// remote empty-offload cost over InfiniBand.
func BenchmarkRemoteOffload(b *testing.B) {
	reps := b.N
	if reps > 500 {
		reps = 500
	}
	r, err := bench.Remote(machine.World{}, reps)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(r.LocalUS, "local-sim-us/op")
	b.ReportMetric(r.RemoteUS, "remote-sim-us/op")
}

// BenchmarkPutGet reports the public-API data path at 64 MiB (rides the VEO
// read/write curves of Fig. 10).
func BenchmarkPutGet(b *testing.B) {
	pts, err := bench.PutGet(machine.World{}, []int64{(64 * units.MiB).Int64()}, 2)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		_ = pts
	}
	b.ReportMetric(pts[0].PutGiBps, "put-sim-GiB/s")
	b.ReportMetric(pts[0].GetGiBps, "get-sim-GiB/s")
}

// BenchmarkGranularity reports the protocol speedup at the paper-companion's
// application-relevant kernel grain (~100 µs).
func BenchmarkGranularity(b *testing.B) {
	rows, err := bench.AblateGranularity(machine.World{}, []float64{100})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		_ = rows
	}
	b.ReportMetric(rows[0].VEOUS, "veo-sim-us/op")
	b.ReportMetric(rows[0].DMAUS, "dma-sim-us/op")
	b.ReportMetric(rows[0].Speedup, "speedup-x")
}
