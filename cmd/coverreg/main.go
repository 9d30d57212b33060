// Command coverreg is the test-coverage regression harness: the coverage
// analogue of benchreg. It measures statement coverage for the guarded
// packages (the serving gateway, the scheduler stack, the runtime core and
// the slot-ring protocol — the packages whose contracts this repository
// leans on hardest) and either
// records the numbers or fails when a fresh run drops below them:
//
//	coverreg                 measure and (re)write COVER_baseline.txt
//	coverreg -check          measure and fail if any guarded package fell
//	                         more than -slack points below its baseline
//
// Statement coverage of a deterministic test suite is stable, but the
// wall-clock backends take timing-dependent branches, so -check allows a
// small slack (default 2 points) before it calls a drop a regression. A rise
// is reported but never fails: refresh the baseline to ratchet it in.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// guarded are the package patterns whose coverage is under regression
// control. Patterns expand through `go test`, so sched/... covers the
// policies and the health breaker alike.
var guarded = []string{
	"hamoffload/gateway",
	"hamoffload/sched/...",
	"hamoffload/internal/core",
	// The one copy of the protocol both SX-Aurora backends speak; its suite
	// runs against a fake transport, so the floor guards the protocol rules
	// themselves rather than one placement's path through them.
	"hamoffload/internal/backend/ring",
}

var coverLine = regexp.MustCompile(`^ok\s+(\S+)\s+\S+\s+coverage: (\d+(?:\.\d+)?)% of statements`)

func main() {
	check := flag.Bool("check", false, "compare against the committed baseline instead of rewriting it")
	slack := flag.Float64("slack", 2.0, "allowed drop in percentage points per package in -check mode")
	file := flag.String("file", "COVER_baseline.txt", "path of the coverage baseline")
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "coverreg: "+format+"\n", args...)
		os.Exit(1)
	}

	fmt.Fprintf(os.Stderr, "coverreg: measuring statement coverage of %s...\n", strings.Join(guarded, " "))
	cmd := exec.Command("go", append([]string{"test", "-cover"}, guarded...)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		fail("go test -cover failed: %v", err)
	}

	current := map[string]float64{}
	for _, line := range strings.Split(string(out), "\n") {
		if m := coverLine.FindStringSubmatch(line); m != nil {
			pct, err := strconv.ParseFloat(m[2], 64)
			if err != nil {
				fail("unparseable coverage %q for %s", m[2], m[1])
			}
			current[m[1]] = pct
		}
	}
	if len(current) == 0 {
		fail("no coverage lines in go test output")
	}
	pkgs := make([]string, 0, len(current))
	for pkg := range current {
		pkgs = append(pkgs, pkg)
	}
	sort.Strings(pkgs)

	if !*check {
		var b strings.Builder
		b.WriteString("# Statement-coverage floors, enforced by `go run ./cmd/coverreg -check`.\n")
		b.WriteString("# Refresh with `go run ./cmd/coverreg` after deliberately growing or\n")
		b.WriteString("# shrinking the guarded suites.\n")
		for _, pkg := range pkgs {
			fmt.Fprintf(&b, "%s %.1f\n", pkg, current[pkg])
		}
		if err := os.WriteFile(*file, []byte(b.String()), 0o644); err != nil {
			fail("%v", err)
		}
		fmt.Fprintln(os.Stderr, "coverreg: wrote", *file)
		return
	}

	raw, err := os.ReadFile(*file)
	if err != nil {
		fail("no baseline %s (run coverreg without -check to create it): %v", *file, err)
	}
	baseline := map[string]float64{}
	for i, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			fail("%s:%d: want \"<package> <percent>\", got %q", *file, i+1, line)
		}
		pct, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			fail("%s:%d: %v", *file, i+1, err)
		}
		baseline[fields[0]] = pct
	}

	bad := 0
	for _, pkg := range pkgs {
		base, ok := baseline[pkg]
		if !ok {
			fmt.Fprintf(os.Stderr, "coverreg: %s has no baseline; refresh %s\n", pkg, *file)
			bad++
			continue
		}
		cur := current[pkg]
		switch {
		case cur < base-*slack:
			fmt.Fprintf(os.Stderr, "coverreg: %s dropped to %.1f%% (baseline %.1f%%, slack %.1f)\n",
				pkg, cur, base, *slack)
			bad++
		case cur > base+*slack:
			fmt.Fprintf(os.Stderr, "coverreg: %s rose to %.1f%% (baseline %.1f%%) — consider ratcheting the baseline\n",
				pkg, cur, base)
		default:
			fmt.Fprintf(os.Stderr, "coverreg: %s %.1f%% (baseline %.1f%%) ok\n", pkg, cur, base)
		}
	}
	for pkg := range baseline {
		if _, ok := current[pkg]; !ok {
			fmt.Fprintf(os.Stderr, "coverreg: baseline names %s but the run measured no such package\n", pkg)
			bad++
		}
	}
	if bad > 0 {
		fail("%d coverage regression(s)", bad)
	}
	fmt.Fprintln(os.Stderr, "coverreg: coverage floors hold")
}
