package analysis

import (
	"os/exec"
	"strings"
	"testing"
)

func TestPolicyScoping(t *testing.T) {
	cases := []struct {
		analyzer, path string
		want           bool
	}{
		// walltime: simulation packages yes, wall-clock bridges no.
		{"walltime", "hamoffload/internal/simtime", true},
		{"walltime", "hamoffload/internal/backend/ring", true},
		{"walltime", "hamoffload/internal/backend/dmab", true},
		{"walltime", "hamoffload/internal/backend/veob", true},
		{"walltime", "hamoffload/internal/backend/locb", true},
		{"walltime", "hamoffload/internal/faults", true},
		{"walltime", "hamoffload/bench", true},
		// sched/health rides under the sched prefix: breaker cooldowns are
		// measured on the caller-supplied simulated clock, never the wall one.
		{"walltime", "hamoffload/sched/health", true},
		// The serving gateway quotas and steals on the simulated clock.
		{"walltime", "hamoffload/gateway", true},
		{"walltime", "hamoffload/internal/backend/tcpb", false},
		{"walltime", "hamoffload/internal/backend/mpib", false},
		// trace reads no clock of its own: every stamp comes from a Clock.
		{"walltime", "hamoffload/internal/trace", true},
		{"walltime", "hamoffload/examples/tcpcluster", false},

		// goroutine: DES set plus the runtime core.
		{"goroutine", "hamoffload/internal/simtime", true},
		{"goroutine", "hamoffload/internal/core", true},
		{"goroutine", "hamoffload/sched/health", true},
		{"goroutine", "hamoffload/gateway", true},
		{"goroutine", "hamoffload/internal/backend/tcpb", false},
		{"goroutine", "hamoffload/internal/backend/mpib", false},

		{"goroutine", "hamoffload/internal/backend/ring", true},
		{"goroutine", "hamoffload/internal/trace", true},

		// flagorder: the slot-ring protocol, its two transports, the flag codec.
		{"flagorder", "hamoffload/internal/backend/ring", true},
		{"flagorder", "hamoffload/internal/backend/dmab", true},
		{"flagorder", "hamoffload/internal/backend/veob", true},
		{"flagorder", "hamoffload/internal/backend/slots", true},
		{"flagorder", "hamoffload/internal/backend/mpib", false},

		// hotalloc and borrowck follow the protocol into ring.
		{"hotalloc", "hamoffload/internal/backend/ring", true},
		{"hotalloc", "hamoffload/internal/backend/conformance", false},
		{"borrowck", "hamoffload/internal/backend/ring", true},

		// spanend: structural, everywhere.
		{"spanend", "hamoffload/internal/dma", true},
		{"spanend", "hamoffload/internal/backend/tcpb", true},
		{"spanend", "hamoffload/examples/quickstart", true},

		// detmap: deterministic-output paths only.
		{"detmap", "hamoffload/internal/trace", true},
		{"detmap", "hamoffload/internal/ham", true},
		{"detmap", "hamoffload/internal/faults", true},
		{"detmap", "hamoffload/cmd/veinfo", true},
		{"detmap", "hamoffload/sched/health", true},
		// the gateway report is byte-compared across runs in the serving tests
		{"detmap", "hamoffload/gateway", true},
		{"detmap", "hamoffload/machine", false},
		{"detmap", "hamoffload/internal/backend/tcpb", false},

		// unitcast: everywhere except the unit-owning packages.
		{"unitcast", "hamoffload/internal/units", false},
		{"unitcast", "hamoffload/internal/simtime", false},
		{"unitcast", "hamoffload/internal/dma", true},
		{"unitcast", "hamoffload/internal/trace", true},
	}
	for _, c := range cases {
		if got := Applies(c.analyzer, c.path); got != c.want {
			t.Errorf("Applies(%q, %q) = %v, want %v", c.analyzer, c.path, got, c.want)
		}
	}
}

// TestPolicyCoversModule is the coverage meta-test: every non-test package
// in the module must be matched by at least one scoping table or stand in
// PolicyExempt with a reason. A new package that is neither fails here, so
// nothing lands with an unconsidered lint posture.
func TestPolicyCoversModule(t *testing.T) {
	out, err := exec.Command("go", "list", "hamoffload/...").Output()
	if err != nil {
		t.Fatalf("go list hamoffload/...: %v", err)
	}
	for _, pkg := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if !CoveredByPolicy(pkg) && !InAny(pkg, PolicyExempt) {
			t.Errorf("package %s is matched by no scoping table and is not in PolicyExempt; classify it in internal/analysis/policy.go", pkg)
		}
	}
	// The exempt list must stay minimal: an entry that a scoping table now
	// covers, or that no longer resolves to a package, is stale.
	for _, root := range PolicyExempt {
		if CoveredByPolicy(root) {
			t.Errorf("PolicyExempt entry %q is already matched by a scoping table; remove it", root)
		}
	}
}

// TestPolicyRootsExist keeps the scoping tables honest across refactors:
// every path the policy names must still resolve to at least one package in
// the module, or the protection silently evaporates on a rename.
func TestPolicyRootsExist(t *testing.T) {
	// The test runs inside internal/analysis, so ask by module path rather
	// than by ./... to cover the whole module.
	out, err := exec.Command("go", "list", "hamoffload/...").Output()
	if err != nil {
		t.Fatalf("go list hamoffload/...: %v", err)
	}
	existing := strings.Split(strings.TrimSpace(string(out)), "\n")
	var roots []string
	roots = append(roots, desPackages...)
	roots = append(roots, wallClockPackages...)
	roots = append(roots, goroutineExtra...)
	roots = append(roots, deterministicOutputPackages...)
	roots = append(roots, unitcastExempt...)
	for _, root := range roots {
		found := false
		for _, pkg := range existing {
			if pkg == root || strings.HasPrefix(pkg, root+"/") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("policy names %q, but no such package exists; update internal/analysis/policy.go", root)
		}
	}
}
