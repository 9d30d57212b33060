package analysis

import (
	"os/exec"
	"slices"
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

		// determinism: the same scope as walltime, the runtime core, the HAM
		// codec and the experiment drivers with it.
		{"determinism", "hamoffload/internal/simtime", true},
		{"determinism", "hamoffload/internal/core", true},
		{"determinism", "hamoffload/internal/ham", true},
		{"determinism", "hamoffload/internal/backend/ring", true},
		{"determinism", "hamoffload/internal/trace", true},
		{"determinism", "hamoffload/internal/faults", true},
		{"determinism", "hamoffload/internal/veos", true},
		{"determinism", "hamoffload/cmd/veinfo", true},
		{"determinism", "hamoffload/cmd/benchreg", true},
		{"determinism", "hamoffload/sched/health", true},
		// the gateway report is byte-compared across runs in the serving tests
		{"determinism", "hamoffload/gateway", true},
		{"determinism", "hamoffload/machine", false},
		{"determinism", "hamoffload/internal/backend/tcpb", false},
		{"determinism", "hamoffload/internal/backend/mpib", false},

		// flagorder: the slot-ring protocol, its two transports, the flag codec.
		{"flagorder", "hamoffload/internal/backend/ring", true},
		{"flagorder", "hamoffload/internal/backend/dmab", true},
		{"flagorder", "hamoffload/internal/backend/veob", true},
		{"flagorder", "hamoffload/internal/backend/slots", true},
		{"flagorder", "hamoffload/internal/backend/mpib", false},

		// borrowck follows the protocol into ring.
		{"borrowck", "hamoffload/internal/backend/ring", true},

		// spanend: structural, everywhere.
		{"spanend", "hamoffload/internal/dma", true},
		{"spanend", "hamoffload/internal/backend/tcpb", true},
		{"spanend", "hamoffload/examples/quickstart", true},

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
	// One determinism regime: walltime and determinism share one scope.
	for _, pkg := range modulePackages(t) {
		if w, d := Applies("walltime", pkg), Applies("determinism", pkg); w != d {
			t.Errorf("%s: walltime applies = %v, determinism applies = %v; the two share one scope", pkg, w, d)
		}
	}
}

// modulePackages lists every package of the module. The tests run inside
// internal/analysis, so they ask by module path rather than by ./....
func modulePackages(t *testing.T) []string {
	t.Helper()
	out, err := exec.Command("go", "list", "hamoffload/...").Output()
	if err != nil {
		t.Fatalf("go list hamoffload/...: %v", err)
	}
	return strings.Split(strings.TrimSpace(string(out)), "\n")
}

// TestPolicyCoversModule is the coverage meta-test: every non-test package
// in the module must be matched by at least one scoping table or stand in
// PolicyExempt with a reason. A new package that is neither fails here, so
// nothing lands with an unconsidered lint posture.
func TestPolicyCoversModule(t *testing.T) {
	for _, pkg := range modulePackages(t) {
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
	existing := modulePackages(t)
	for _, table := range append(scopingTables, PolicyExempt) {
		for _, root := range table {
			if !slices.ContainsFunc(existing, func(pkg string) bool { return InAny(pkg, []string{root}) }) {
				t.Errorf("policy names %q, but no such package exists; update internal/analysis/policy.go", root)
			}
		}
	}
}
