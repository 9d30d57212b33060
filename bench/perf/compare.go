package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// readRecords loads the -trace 0 runs of an -out file, grouped by workload.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	byWorkload := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace == 0 {
			byWorkload[rec.Workload] = append(byWorkload[rec.Workload], rec)
		}
	}
	return byWorkload, sc.Err()
}

// quartiles returns the first and third quartile of v as Python's
// statistics.quantiles(v, n=4) computes them (the exclusive method), which is
// what the benchmark driver uses for its spread.
func quartiles(v []float64) (q1, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	return (q3 - q1) / median(v)
}

func metricValues(recs []record, name string) []float64 {
	var v []float64
	for _, r := range recs {
		if m, ok := r.Report.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// compareFiles prints one row per end-to-end metric and workload: the base
// and new medians, their ratio, and a verdict under the metric's bound —
// "worse" when the new median is worse than the base by more than the bound,
// "unresolved" when either side's run-to-run spread exceeds the bound (unless
// every new run beats every base run), else "ok". It reports whether any row
// is worse.
func compareFiles(w io.Writer, basePath, newPath string) (bool, error) {
	base, err := readRecords(basePath)
	if err != nil {
		return false, err
	}
	cur, err := readRecords(newPath)
	if err != nil {
		return false, err
	}
	anyWorse := false
	fmt.Fprintf(w, "%-20s %-11s %16s %16s %8s %7s %7s  %s\n",
		"metric", "workload", "base median", "new median", "ratio", "spread", "bound", "verdict")
	for _, wl := range workloads {
		b, n := base[wl.name], cur[wl.name]
		if len(b) == 0 || len(n) == 0 {
			continue
		}
		for _, m := range endToEnd {
			bv, nv := metricValues(b, m.Name), metricValues(n, m.Name)
			if len(bv) == 0 || len(nv) == 0 {
				return false, fmt.Errorf("%s on %s: missing from one side", m.Name, wl.name)
			}
			bm, nm := median(bv), median(nv)
			worsening := (nm - bm) / bm
			allBetter := slices.Min(nv) > slices.Max(bv)
			if m.Better == "higher" {
				worsening = -worsening
			} else {
				allBetter = slices.Max(nv) < slices.Min(bv)
			}
			sp := max(spread(bv), spread(nv))
			verdict := "ok"
			switch {
			case sp > m.Bound && !allBetter:
				verdict = "unresolved"
			case worsening > m.Bound:
				verdict = "worse"
				anyWorse = true
			}
			fmt.Fprintf(w, "%-20s %-11s %16.6g %16.6g %8.4f %6.2f%% %6.2f%%  %s (%d vs %d runs)\n",
				m.Name, wl.name, bm, nm, nm/bm, 100*sp, 100*m.Bound, verdict, len(bv), len(nv))
		}
	}
	return anyWorse, nil
}
