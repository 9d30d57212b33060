package determinism_test

import (
	"testing"

	"hamoffload/internal/analysis/analysistest"
	"hamoffload/internal/analysis/determinism"
)

// TestDetmap runs the map-order and math/rand fixture.
func TestDetmap(t *testing.T) {
	analysistest.Run(t, determinism.Analyzer, "detmap")
}

// TestGoroutine runs the raw-goroutine and captured-Proc fixture.
func TestGoroutine(t *testing.T) {
	analysistest.Run(t, determinism.Analyzer, "goroutine")
}
