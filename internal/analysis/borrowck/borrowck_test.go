package borrowck_test

import (
	"testing"

	"hamoffload/internal/analysis"
	"hamoffload/internal/analysis/analysistest"
	"hamoffload/internal/analysis/borrowck"
)

func TestBorrowck(t *testing.T) {
	analysistest.RunModule(t, borrowck.Analyzer, nil, "borrowfix")
}

// TestBorrowckSolver pins the dataflow-solver corner cases: alias facts
// across branch joins and loop back edges, one-arm vs. all-arm kills, alias
// independence from the root fact, and defer discharge.
func TestBorrowckSolver(t *testing.T) {
	analysistest.RunModule(t, borrowck.Analyzer, nil, "borrowflow")
}

// TestBorrowckKernels runs the kernel rule under the repository's scoping
// policy, which leaves the fixture package outside the borrowck scope: each
// registered kernel that lets a []byte argument escape still reports, each
// sanctioned use stays quiet, and an annotated ordinary function there is
// not checked.
func TestBorrowckKernels(t *testing.T) {
	analysistest.RunModule(t, borrowck.Analyzer, analysis.Applies, "borrowkernel")
}
