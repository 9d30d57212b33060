package bench

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// RenderFig9 prints the offload-cost comparison in the style of the paper's
// horizontal bar chart, annotated with the quoted ratios.
func RenderFig9(w io.Writer, r Fig9Result) {
	fmt.Fprintf(w, "Function Offload Cost, VH to local VE (socket %d)\n", r.Socket)
	fmt.Fprintln(w, strings.Repeat("-", 64))
	rows := []struct {
		name string
		us   float64
	}{
		{"HAM-Offload (VEO transfer)", r.HAMVEOUS},
		{"VEO (native offload)", r.VEONativeUS},
		{"HAM-Offload (VE DMA)", r.HAMDMAUS},
	}
	max := 0.0
	for _, row := range rows {
		if row.us > max {
			max = row.us
		}
	}
	for _, row := range rows {
		bar := int(row.us / max * 40)
		if bar < 1 {
			bar = 1
		}
		fmt.Fprintf(w, "%-28s %8.1f us |%s\n", row.name, row.us, strings.Repeat("#", bar))
	}
	fmt.Fprintln(w, strings.Repeat("-", 64))
	fmt.Fprintf(w, "HAM-VEO / native VEO : %5.1fx   (paper:  5.4x)\n", r.HAMVEOOverNative)
	fmt.Fprintf(w, "native VEO / HAM-DMA : %5.1fx   (paper: 13.1x)\n", r.NativeOverDMA)
	fmt.Fprintf(w, "HAM-VEO / HAM-DMA    : %5.1fx   (paper: 70.8x)\n", r.HAMVEOOverDMA)
}

// RenderFig10 prints the four panels of Fig. 10: {direction} × {small ≤1 KiB,
// large} with one column per method.
func RenderFig10(w io.Writer, series []Series, smallCut int64) {
	if smallCut <= 0 {
		smallCut = 1024
	}
	for _, dir := range []string{DirDown, DirUp} {
		var cols []Series
		for _, s := range series {
			if s.Direction == dir {
				cols = append(cols, s)
			}
		}
		for _, panel := range []struct {
			name string
			keep func(int64) bool
		}{
			{"small messages (<= " + sizeLabel(smallCut) + ")", func(n int64) bool { return n <= smallCut }},
			{"large messages (> " + sizeLabel(smallCut) + ")", func(n int64) bool { return n > smallCut }},
		} {
			fmt.Fprintf(w, "\n%s, %s — bandwidth in GiB/s\n", dir, panel.name)
			fmt.Fprintf(w, "%-10s", "size")
			for _, c := range cols {
				fmt.Fprintf(w, " %16s", c.Method)
			}
			fmt.Fprintln(w)
			sizes := sizesOf(cols, panel.keep)
			for _, sz := range sizes {
				fmt.Fprintf(w, "%-10s", sizeLabel(sz))
				for _, c := range cols {
					if p, ok := c.At(sz); ok {
						fmt.Fprintf(w, " %16s", fmtGiBps(p.GiBps))
					} else {
						fmt.Fprintf(w, " %16s", "-")
					}
				}
				fmt.Fprintln(w)
			}
		}
	}
}

func sizesOf(series []Series, keep func(int64) bool) []int64 {
	seen := map[int64]bool{}
	var out []int64
	for _, s := range series {
		for _, p := range s.Points {
			if keep(p.Size) && !seen[p.Size] {
				seen[p.Size] = true
				out = append(out, p.Size)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RenderTableIV prints the maximum-bandwidth table next to the paper's
// numbers.
func RenderTableIV(w io.Writer, rows []TableIVRow) {
	paper := map[string][2]float64{
		MethodVEO:  {9.9, 10.4},
		MethodDMA:  {10.6, 11.1},
		MethodInst: {0.01, 0.06},
	}
	fmt.Fprintln(w, "Max. PCIe bandwidths between VH and VE (GiB/s)")
	fmt.Fprintf(w, "%-16s %12s %12s %14s %14s\n",
		"Transfer Method", "VH=>VE", "VE=>VH", "paper VH=>VE", "paper VE=>VH")
	for _, r := range rows {
		p := paper[r.Method]
		fmt.Fprintf(w, "%-16s %12s %12s %14s %14s\n",
			r.Method, fmtGiBps(r.DownGiBps), fmtGiBps(r.UpGiBps),
			fmtGiBps(p[0]), fmtGiBps(p[1]))
	}
}

// RenderCrossover prints the sizes up to which SHM stores beat the bulk
// paths in the VE=>VH direction of a Fig. 10 sweep.
func RenderCrossover(w io.Writer, sweep []Series) {
	find := func(method string) Series {
		for _, s := range sweep {
			if s.Method == method && s.Direction == DirUp {
				return s
			}
		}
		return Series{}
	}
	shm := find(MethodInst)
	fmt.Fprintln(w, "Crossover points, VE=>VH direction (§V-B)")
	fmt.Fprintf(w, "SHM faster than VE user DMA up to : %8s   (paper: 256B)\n",
		sizeLabel(Crossover(shm, find(MethodDMA))))
	fmt.Fprintf(w, "SHM faster than VEO read up to    : %8s   (paper: 32KiB; see EXPERIMENTS.md)\n",
		sizeLabel(Crossover(shm, find(MethodVEO))))
}

// RenderAblation prints ablation rows as a two-column table.
func RenderAblation(w io.Writer, title string, rows []AblationRow) {
	fmt.Fprintln(w, title)
	fmt.Fprintln(w, strings.Repeat("-", len(title)))
	for _, r := range rows {
		fmt.Fprintf(w, "%-40s %10.3f %s\n", r.Config, r.Value, r.Unit)
	}
}

// RenderASCIIPlot draws a crude log-log bandwidth plot of the series for a
// direction, one letter per method, for terminal inspection of the curve
// shapes (saturation points, crossovers).
func RenderASCIIPlot(w io.Writer, series []Series, dir string) {
	const width, height = 64, 16
	letters := map[string]byte{MethodVEO: 'V', MethodDMA: 'D', MethodInst: 'S'}
	var cols []Series
	minSize, maxSize := int64(math.MaxInt64), int64(0)
	minBW, maxBW := math.MaxFloat64, 0.0
	for _, s := range series {
		if s.Direction != dir || len(s.Points) == 0 {
			continue
		}
		cols = append(cols, s)
		for _, p := range s.Points {
			if p.Size < minSize {
				minSize = p.Size
			}
			if p.Size > maxSize {
				maxSize = p.Size
			}
			if p.GiBps > 0 && p.GiBps < minBW {
				minBW = p.GiBps
			}
			if p.GiBps > maxBW {
				maxBW = p.GiBps
			}
		}
	}
	if len(cols) == 0 || maxSize <= minSize || maxBW <= 0 {
		return
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	lx := func(n int64) int {
		f := (math.Log2(float64(n)) - math.Log2(float64(minSize))) /
			(math.Log2(float64(maxSize)) - math.Log2(float64(minSize)))
		x := int(f * float64(width-1))
		return clamp(x, 0, width-1)
	}
	ly := func(bw float64) int {
		f := (math.Log10(bw) - math.Log10(minBW)) / (math.Log10(maxBW) - math.Log10(minBW))
		y := height - 1 - int(f*float64(height-1))
		return clamp(y, 0, height-1)
	}
	for _, s := range cols {
		ch := letters[s.Method]
		for _, p := range s.Points {
			if p.GiBps <= 0 {
				continue
			}
			grid[ly(p.GiBps)][lx(p.Size)] = ch
		}
	}
	fmt.Fprintf(w, "\n%s bandwidth (log-log), V=%s D=%s S=%s\n", dir, MethodVEO, MethodDMA, MethodInst)
	fmt.Fprintf(w, "%8s +%s\n", fmtGiBps(maxBW), strings.Repeat("-", width))
	for _, row := range grid {
		fmt.Fprintf(w, "%8s |%s\n", "", string(row))
	}
	fmt.Fprintf(w, "%8s +%s\n", fmtGiBps(minBW), strings.Repeat("-", width))
	fmt.Fprintf(w, "%10s%s -> %s\n", "", sizeLabel(minSize), sizeLabel(maxSize))
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// WriteCSV emits the series in long form: method,direction,size,gibps,us.
func WriteCSV(w io.Writer, series []Series) error {
	if _, err := fmt.Fprintln(w, "method,direction,size_bytes,gibps,us_per_op"); err != nil {
		return err
	}
	for _, s := range series {
		for _, p := range s.Points {
			if _, err := fmt.Fprintf(w, "%s,%s,%d,%g,%g\n",
				s.Method, s.Direction, p.Size, p.GiBps, p.US); err != nil {
				return err
			}
		}
	}
	return nil
}
