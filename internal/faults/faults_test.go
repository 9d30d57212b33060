package faults

import (
	"errors"
	"testing"

	"hamoffload/internal/simtime"
)

func TestNilInjectorIsFree(t *testing.T) {
	var in *Injector
	if err := in.TransferError(0, SitePrivDMA, 1); err != nil {
		t.Fatalf("nil injector injected: %v", err)
	}
	if off := in.Corrupt(0, SiteUserDMA, 1, 4096); off != -1 {
		t.Fatalf("nil injector corrupted at %d", off)
	}
	if d := in.StallDelay(0, 1); d != 0 {
		t.Fatalf("nil injector stalled %v", d)
	}
	if in.CrashNow(0, 1) || in.ConnReset(1) {
		t.Fatal("nil injector crashed/reset")
	}
	if err := in.LinkError(0, 1); err != nil {
		t.Fatalf("nil injector link error: %v", err)
	}
	if in.Injected() != 0 {
		t.Fatal("nil injector counted injections")
	}
	if New(nil) != nil {
		t.Fatal("New(nil) must return a nil injector")
	}
}

func TestOpScheduledRule(t *testing.T) {
	in := New(&Plan{Rules: []Rule{
		{Kind: DMAError, Site: SitePrivDMA, Node: 1, AfterOp: 2, Count: 2},
	}})
	var errs []int
	for op := 0; op < 6; op++ {
		if err := in.TransferError(0, SitePrivDMA, 1); err != nil {
			errs = append(errs, op)
			var fe *Error
			if !errors.As(err, &fe) || !fe.Transient() {
				t.Fatalf("op %d: want transient *Error, got %v", op, err)
			}
		}
	}
	if len(errs) != 2 || errs[0] != 2 || errs[1] != 3 {
		t.Fatalf("fired at %v, want [2 3]", errs)
	}
	if in.Injected() != 2 {
		t.Fatalf("Injected = %d, want 2", in.Injected())
	}
	// Other sites and nodes share nothing with the matched counter.
	if err := in.TransferError(0, SiteUserDMA, 1); err != nil {
		t.Fatalf("unmatched site fired: %v", err)
	}
	if err := in.TransferError(0, SitePrivDMA, 2); err != nil {
		t.Fatalf("unmatched node fired: %v", err)
	}
}

func TestEveryStride(t *testing.T) {
	in := New(&Plan{Rules: []Rule{
		{Kind: DMAError, Site: SiteConn, Node: AnyNode, AfterOp: 1, Count: 3, Every: 2},
	}})
	var fired []int
	for op := 0; op < 10; op++ {
		if in.TransferError(0, SiteConn, 0) != nil {
			fired = append(fired, op)
		}
	}
	want := []int{1, 3, 5}
	if len(fired) != len(want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired at %v, want %v", fired, want)
		}
	}
}

func TestTimeWindowRules(t *testing.T) {
	us := simtime.Microsecond
	in := New(&Plan{Rules: []Rule{
		{Kind: Stall, Node: 0, From: simtime.Time(10 * us), Until: simtime.Time(20 * us)},
		{Kind: LinkDown, Node: 1, From: simtime.Time(5 * us), Until: simtime.Time(6 * us)},
	}})
	if d := in.StallDelay(simtime.Time(9*us), 0); d != 0 {
		t.Fatalf("stall before window: %v", d)
	}
	if d := in.StallDelay(simtime.Time(12*us), 0); d != 8*us {
		t.Fatalf("stall = %v, want %v", d, 8*us)
	}
	if d := in.StallDelay(simtime.Time(20*us), 0); d != 0 {
		t.Fatalf("stall at window end: %v", d)
	}
	if err := in.LinkError(simtime.Time(5*us), 1); err == nil {
		t.Fatal("link up inside down window")
	}
	if err := in.LinkError(simtime.Time(6*us), 1); err != nil {
		t.Fatalf("link down after window: %v", err)
	}
	// Wall-clock callers pass now = 0: window rules never fire.
	if d := in.StallDelay(0, 0); d != 0 {
		t.Fatalf("window rule fired at time 0: %v", d)
	}
}

func TestProbabilisticStreamIsDeterministic(t *testing.T) {
	run := func() []int {
		in := New(&Plan{Seed: 42, Rules: []Rule{
			{Kind: DMAError, Site: SiteUserDMA, Node: AnyNode, Rate: 0.3},
		}})
		var fired []int
		for op := 0; op < 200; op++ {
			if in.TransferError(0, SiteUserDMA, 3) != nil {
				fired = append(fired, op)
			}
		}
		return fired
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) == 200 {
		t.Fatalf("rate 0.3 fired %d/200 times", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("runs disagree: %d vs %d fires", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs disagree at fire %d: op %d vs %d", i, a[i], b[i])
		}
	}
	// A different seed draws a different stream.
	in2 := New(&Plan{Seed: 43, Rules: []Rule{
		{Kind: DMAError, Site: SiteUserDMA, Node: AnyNode, Rate: 0.3},
	}})
	var c []int
	for op := 0; op < 200; op++ {
		if in2.TransferError(0, SiteUserDMA, 3) != nil {
			c = append(c, op)
		}
	}
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 drew identical streams")
	}
}

func TestCorruptSkipsFlagWords(t *testing.T) {
	in := New(&Plan{Rules: []Rule{
		{Kind: BitFlip, Site: SitePrivDMA, Node: AnyNode, AfterOp: 0, Count: 100},
	}})
	if off := in.Corrupt(0, SitePrivDMA, 0, 8); off != -1 {
		t.Fatalf("8-byte transfer corrupted at %d", off)
	}
	off := in.Corrupt(0, SitePrivDMA, 0, 100)
	if off < 0 || off >= 100 {
		t.Fatalf("corrupt offset %d out of range", off)
	}
}

func TestCrashAndReset(t *testing.T) {
	in := New(&Plan{Rules: []Rule{
		{Kind: Crash, Node: 1, AfterOp: 1},
		{Kind: ConnReset, Node: 2, AfterOp: 0},
	}})
	if in.CrashNow(0, 1) {
		t.Fatal("crashed before AfterOp")
	}
	if !in.CrashNow(0, 1) {
		t.Fatal("no crash at AfterOp")
	}
	if in.CrashNow(0, 1) {
		t.Fatal("crash rule fired twice")
	}
	if !in.ConnReset(2) {
		t.Fatal("no reset at op 0")
	}
	if in.ConnReset(3) {
		t.Fatal("reset on unmatched node")
	}
}

func TestSlowDelayNilAndUnmatched(t *testing.T) {
	var nilIn *Injector
	if d := nilIn.SlowDelay(0, SiteVEOS, 1, simtime.Microsecond); d != 0 {
		t.Fatalf("nil injector slowed %v", d)
	}
	in := New(&Plan{Rules: []Rule{
		{Kind: SlowDown, Site: SiteVEOS, Node: 1, Until: simtime.Time(simtime.Second), Factor: 10},
	}})
	if d := in.SlowDelay(0, SiteVEOS, 2, simtime.Microsecond); d != 0 {
		t.Fatalf("unmatched node slowed %v", d)
	}
	if d := in.SlowDelay(0, SiteUserDMA, 1, simtime.Microsecond); d != 0 {
		t.Fatalf("unmatched site slowed %v", d)
	}
}

func TestSlowDownFactorScalesBase(t *testing.T) {
	in := New(&Plan{Rules: []Rule{
		{Kind: SlowDown, Site: SiteVEOS, Node: 1, Until: simtime.Time(simtime.Second), Factor: 10},
	}})
	base := 18 * simtime.Microsecond
	// Factor 10 means the operation takes 10× its nominal cost: the hook
	// returns the *extra* 9× the caller sleeps on top of the base.
	if d := in.SlowDelay(0, SiteVEOS, 1, base); d != 9*base {
		t.Fatalf("SlowDelay = %v, want %v", d, 9*base)
	}
	// Outside the window the node runs at full speed again.
	if d := in.SlowDelay(simtime.Time(2*simtime.Second), SiteVEOS, 1, base); d != 0 {
		t.Fatalf("slow-down fired outside its window: %v", d)
	}
	// Factor <= 1 and zero base inject nothing.
	if d := in.SlowDelay(0, SiteVEOS, 1, 0); d != 0 {
		t.Fatalf("zero base slowed %v", d)
	}
	lame := New(&Plan{Rules: []Rule{
		{Kind: SlowDown, Site: SiteVEOS, Node: 1, Until: simtime.Time(simtime.Second), Factor: 1},
	}})
	if d := lame.SlowDelay(0, SiteVEOS, 1, base); d != 0 {
		t.Fatalf("factor 1 slowed %v", d)
	}
}

func TestJitterIsBoundedAndSeedDeterministic(t *testing.T) {
	plan := &Plan{Seed: 99, Rules: []Rule{
		{Kind: Jitter, Site: SitePCIe, Node: AnyNode, Rate: 1, JitterMax: 4 * simtime.Microsecond},
	}}
	run := func() []simtime.Duration {
		in := New(plan)
		var ds []simtime.Duration
		for op := 0; op < 32; op++ {
			ds = append(ds, in.SlowDelay(0, SitePCIe, 0, simtime.Microsecond))
		}
		return ds
	}
	a, b := run(), run()
	varied := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d: jitter not reproducible across identical plans (%v vs %v)", i, a[i], b[i])
		}
		if a[i] < 0 || a[i] >= 4*simtime.Microsecond {
			t.Fatalf("op %d: jitter %v outside [0, JitterMax)", i, a[i])
		}
		if i > 0 && a[i] != a[0] {
			varied = true
		}
	}
	if !varied {
		t.Fatal("32 jitter draws were all identical; the stream should vary per op")
	}
	// A different seed draws a different stream.
	other := New(&Plan{Seed: 100, Rules: plan.Rules})
	diff := false
	for op := 0; op < 32; op++ {
		if other.SlowDelay(0, SitePCIe, 0, simtime.Microsecond) != a[op] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical jitter streams")
	}
}

func TestSlowDownAndJitterCompose(t *testing.T) {
	in := New(&Plan{Seed: 7, Rules: []Rule{
		{Kind: SlowDown, Site: SiteVEOS, Node: 1, Until: simtime.Time(simtime.Second), Factor: 3},
		{Kind: Jitter, Site: SiteVEOS, Node: 1, Rate: 1, JitterMax: simtime.Microsecond},
	}})
	base := 10 * simtime.Microsecond
	d := in.SlowDelay(0, SiteVEOS, 1, base)
	if d < 2*base || d >= 2*base+simtime.Microsecond {
		t.Fatalf("composed delay %v outside [%v, %v)", d, 2*base, 2*base+simtime.Microsecond)
	}
	if in.Injected() < 2 {
		t.Fatalf("Injected = %d, want both rules counted", in.Injected())
	}
}

func TestMixMatchesInternalStream(t *testing.T) {
	if Mix(1, 2, 3) != mix(1, 2, 3) {
		t.Fatal("exported Mix must be the injector's own stream")
	}
	if Mix(1) == Mix(2) {
		t.Fatal("Mix must spread distinct inputs")
	}
}

func TestNewKindAndSiteStrings(t *testing.T) {
	if SlowDown.String() != "slow-down" || Jitter.String() != "jitter" {
		t.Fatalf("kind strings = %q, %q", SlowDown.String(), Jitter.String())
	}
	if SitePCIe.String() != "pcie" {
		t.Fatalf("SitePCIe.String() = %q", SitePCIe.String())
	}
}
