package bench

import (
	"bytes"
	"strings"
	"testing"

	"hamoffload/internal/trace"
	"hamoffload/machine"
)

// servingSmall is a scaled-down sweep that still crosses two diurnal cycles
// and the gray-failure window, so every mechanism (quota and share
// rejections, stealing, SLO burn) exercises in a test-sized run.
func servingSmall(seed uint64, tracer *trace.Tracer) (ServingResult, error) {
	return Serving(traced(machine.World{}, tracer), ServingConfig{
		Offloads:      40_000,
		Seed:          seed,
		DiurnalCycles: 2,
	})
}

func TestServingMechanisms(t *testing.T) {
	res, err := servingSmall(42, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Gateway
	if r.Submitted != 40_000 {
		t.Fatalf("submitted %d, want 40000", r.Submitted)
	}
	var quota, share, admitted, completed int64
	for _, c := range r.Classes {
		quota += c.RejectedQuota
		share += c.RejectedShare
		admitted += c.Admitted
		completed += c.Completed
		if c.Failed != 0 {
			t.Errorf("class %s: %d dispatch failures", c.Class, c.Failed)
		}
	}
	if completed != admitted {
		t.Fatalf("completed %d != admitted %d: dropped or unsettled futures", completed, admitted)
	}
	if admitted+quota+share != r.Submitted {
		t.Fatalf("admission accounting leak: %d + %d + %d != %d", admitted, quota, share, r.Submitted)
	}
	if quota == 0 {
		t.Error("expected tenant-quota rejections at the diurnal peaks")
	}
	if share == 0 {
		t.Error("expected class-share rejections under peak overload")
	}
	if r.Steals == 0 {
		t.Error("expected work stealing around the gray-failure window")
	}
	// The gray window lies after the connect, inside the traffic, so the
	// SlowDown rule fires on VE 1.
	if res.Slowed == 0 {
		t.Errorf("gray window [%v, %v) slowed nothing", res.GrayFrom, res.GrayUntil)
	}
	// The QoS point of the experiment: latency-critical traffic must keep a
	// far shorter tail than bulk traffic on the same saturated fleet.
	lc, be := res.PerClass[0], res.PerClass[2]
	if lc.P99US >= be.P99US/2 {
		t.Errorf("latency-critical p99 %.2f us not well under best-effort p99 %.2f us", lc.P99US, be.P99US)
	}
}

func TestServingDeterministic(t *testing.T) {
	render := func(seed uint64) (string, string) {
		tracer := trace.NewTracer()
		res, err := servingSmall(seed, tracer)
		if err != nil {
			t.Fatal(err)
		}
		var rep, chr bytes.Buffer
		RenderServing(&rep, res)
		if err := tracer.ExportChrome(&chr); err != nil {
			t.Fatal(err)
		}
		return rep.String(), chr.String()
	}
	rep1, chr1 := render(42)
	rep2, chr2 := render(42)
	if rep1 != rep2 {
		t.Error("same seed must render a byte-identical report")
	}
	if chr1 != chr2 {
		t.Error("same seed must export a byte-identical Chrome trace")
	}
	if !strings.Contains(chr1, `"steal"`) {
		t.Error("Chrome trace should carry steal instants")
	}
	if !strings.Contains(chr1, `"admit"`) {
		t.Error("Chrome trace should carry admission-rejection instants")
	}
	rep3, _ := render(7)
	if rep1 == rep3 {
		t.Error("different seeds should not produce identical reports")
	}
}

func TestServingReportShape(t *testing.T) {
	r, err := ServingReport(machine.World{}, ServingConfig{Offloads: 6_000, DiurnalCycles: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.Experiment != "serving" {
		t.Fatalf("experiment = %q", r.Experiment)
	}
	want := []string{"latency-critical", "batch", "best-effort"}
	if len(r.Entries) != len(want) {
		t.Fatalf("entries = %d, want %d", len(r.Entries), len(want))
	}
	for i, name := range want {
		if r.Entries[i].Name != name {
			t.Errorf("entry %d = %q, want %q", i, r.Entries[i].Name, name)
		}
		if r.Entries[i].N == 0 || r.Entries[i].P99US <= 0 {
			t.Errorf("entry %q has empty stats: %+v", name, r.Entries[i])
		}
	}
}
