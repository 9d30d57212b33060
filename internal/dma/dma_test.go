package dma

import (
	"testing"

	"hamoffload/internal/faults"
	"hamoffload/internal/hostmem"
	"hamoffload/internal/mem"
	"hamoffload/internal/pcie"
	"hamoffload/internal/simtime"
	"hamoffload/internal/topology"
	"hamoffload/internal/trace"
	"hamoffload/internal/units"
	"hamoffload/internal/vemem"
)

// rig bundles a minimal VH+VE memory pair with a PCIe path for engine tests.
type rig struct {
	eng  *simtime.Engine
	tm   topology.Timing
	host *hostmem.Host
	ve   *vemem.VE
	path pcie.Path
}

func newRig(t *testing.T, pageSize units.Bytes) *rig {
	t.Helper()
	eng := simtime.NewEngine()
	tm := topology.DefaultTiming()
	host, err := hostmem.New("vh", 2*units.GiB, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	ve, err := vemem.New("ve0", 4*units.GiB)
	if err != nil {
		t.Fatal(err)
	}
	fab, err := pcie.NewFabric(eng, topology.A300_8(), tm)
	if err != nil {
		t.Fatal(err)
	}
	path, err := fab.PathFrom(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{eng: eng, tm: tm, host: host, ve: ve, path: path}
}

// runIn executes fn as a single simulated process and returns its duration.
func (r *rig) runIn(t *testing.T, fn func(p *simtime.Proc)) simtime.Duration {
	t.Helper()
	var took simtime.Duration
	r.eng.Spawn("test", func(p *simtime.Proc) {
		start := p.Now()
		fn(p)
		took = p.Now().Sub(start)
	})
	if err := r.eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return took
}

func TestPrivilegedWriteMovesBytes(t *testing.T) {
	r := newRig(t, 2*units.MiB)
	hAddr, err := r.host.Alloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	vAddr, err := r.ve.Alloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.host.WriteAt([]byte("offload me"), hAddr); err != nil {
		t.Fatal(err)
	}
	d := NewPrivileged(r.eng, "ve0", r.tm, TranslateBulk4DMA,
		r.host.PageSize.Int64(), r.path, r.host.Memory, r.ve.Memory)
	took := r.runIn(t, func(p *simtime.Proc) {
		if err := d.Write(p, vAddr, hAddr, 10); err != nil {
			t.Errorf("Write: %v", err)
		}
	})
	got := make([]byte, 10)
	if err := r.ve.ReadAt(got, vAddr); err != nil {
		t.Fatal(err)
	}
	if string(got) != "offload me" {
		t.Fatalf("VE memory = %q", got)
	}
	if took <= 0 {
		t.Fatal("transfer took no simulated time")
	}
}

func TestPrivilegedReadSlowerThanWrite(t *testing.T) {
	// The read path pays PrivDMAReadExtra (remote descriptor fetch).
	r := newRig(t, 2*units.MiB)
	hAddr, _ := r.host.Alloc(4096)
	vAddr, _ := r.ve.Alloc(4096)
	d := NewPrivileged(r.eng, "ve0", r.tm, TranslateBulk4DMA,
		r.host.PageSize.Int64(), r.path, r.host.Memory, r.ve.Memory)
	var wTime, rTime simtime.Duration
	r.runIn(t, func(p *simtime.Proc) {
		s := p.Now()
		if err := d.Write(p, vAddr, hAddr, 8); err != nil {
			t.Error(err)
		}
		wTime = p.Now().Sub(s)
		s = p.Now()
		if err := d.Read(p, hAddr, vAddr, 8); err != nil {
			t.Error(err)
		}
		rTime = p.Now().Sub(s)
	})
	if rTime <= wTime {
		t.Errorf("read %v should be slower than write %v", rTime, wTime)
	}
	if rTime-wTime < r.tm.PrivDMAReadExtra {
		t.Errorf("read extra = %v, want >= %v", rTime-wTime, r.tm.PrivDMAReadExtra)
	}
}

func TestNaiveTranslationPenalizes4KiBPages(t *testing.T) {
	// 2 MiB of data on 4 KiB pages = 512 translations; the naive manager
	// pays them serially, bulk-4dma overlaps them with the transfer.
	size := (2 * units.MiB).Int64()
	timeFor := func(mode TranslateMode) simtime.Duration {
		r := newRig(t, 4*units.KiB)
		hAddr, _ := r.host.Alloc(size)
		vAddr, _ := r.ve.Alloc(size)
		d := NewPrivileged(r.eng, "ve0", r.tm, mode,
			r.host.PageSize.Int64(), r.path, r.host.Memory, r.ve.Memory)
		return r.runIn(t, func(p *simtime.Proc) {
			if err := d.Write(p, vAddr, hAddr, size); err != nil {
				t.Error(err)
			}
		})
	}
	naive, bulk := timeFor(TranslateNaive), timeFor(TranslateBulk4DMA)
	if naive <= bulk {
		t.Errorf("naive %v should be slower than bulk %v on 4KiB pages", naive, bulk)
	}
	// The naive penalty is 512 × PrivTranslatePerPage ≈ 307 µs on top.
	tm := topology.DefaultTiming()
	wantExtra := 512 * tm.PrivTranslatePerPage
	extra := naive - bulk
	if extra < wantExtra/2 {
		t.Errorf("naive extra = %v, want ≈%v", extra, wantExtra)
	}
}

func TestHugePagesCutTranslationWork(t *testing.T) {
	size := (8 * units.MiB).Int64()
	timeFor := func(page units.Bytes) simtime.Duration {
		r := newRig(t, page)
		hAddr, _ := r.host.Alloc(size)
		vAddr, _ := r.ve.Alloc(size)
		d := NewPrivileged(r.eng, "ve0", r.tm, TranslateNaive,
			r.host.PageSize.Int64(), r.path, r.host.Memory, r.ve.Memory)
		return r.runIn(t, func(p *simtime.Proc) {
			if err := d.Write(p, vAddr, hAddr, size); err != nil {
				t.Error(err)
			}
		})
	}
	small, huge := timeFor(4*units.KiB), timeFor(2*units.MiB)
	if small <= huge {
		t.Errorf("4KiB pages %v should be slower than huge pages %v", small, huge)
	}
}

func TestUserDMAMovesBytesAndRespectsATB(t *testing.T) {
	r := newRig(t, 2*units.MiB)
	seg, err := r.host.ShmCreate(4096)
	if err != nil {
		t.Fatal(err)
	}
	vAddr, err := r.ve.Alloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	hostVEHVA, err := r.ve.ATB().Register(r.host.Memory, seg.Addr, seg.Size)
	if err != nil {
		t.Fatal(err)
	}
	veVEHVA, err := r.ve.ATB().Register(r.ve.Memory, vAddr, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ve.WriteAt([]byte("result!"), vAddr); err != nil {
		t.Fatal(err)
	}
	u := NewUserDMA(r.eng, "ve0c0", r.tm, r.ve.ATB(), r.path)
	r.runIn(t, func(p *simtime.Proc) {
		// VE→VH: write local buffer into host shm.
		if err := u.Post(p, API, pcie.Up, hostVEHVA, veVEHVA, 7); err != nil {
			t.Errorf("Post: %v", err)
		}
	})
	got := make([]byte, 7)
	if err := r.host.ReadAt(got, seg.Addr); err != nil {
		t.Fatal(err)
	}
	if string(got) != "result!" {
		t.Fatalf("host shm = %q", got)
	}

	// Unregistered addresses must raise a DMA exception.
	r2 := newRig(t, 2*units.MiB)
	u2 := NewUserDMA(r2.eng, "x", r2.tm, r2.ve.ATB(), r2.path)
	r2.runIn(t, func(p *simtime.Proc) {
		if err := u2.Post(p, API, pcie.Up, 0xdead000, 0xbeef000, 8); err == nil {
			t.Error("Post with unregistered VEHVA should fail")
		}
	})
}

func TestUserDMARawFasterThanAPI(t *testing.T) {
	r := newRig(t, 2*units.MiB)
	seg, _ := r.host.ShmCreate(4096)
	vAddr, _ := r.ve.Alloc(4096)
	hostVEHVA, _ := r.ve.ATB().Register(r.host.Memory, seg.Addr, seg.Size)
	veVEHVA, _ := r.ve.ATB().Register(r.ve.Memory, vAddr, 4096)
	u := NewUserDMA(r.eng, "ve0c0", r.tm, r.ve.ATB(), r.path)
	var api, raw simtime.Duration
	r.runIn(t, func(p *simtime.Proc) {
		s := p.Now()
		if err := u.Post(p, API, pcie.Up, hostVEHVA, veVEHVA, 64); err != nil {
			t.Error(err)
		}
		api = p.Now().Sub(s)
		s = p.Now()
		if err := u.Post(p, Raw, pcie.Up, hostVEHVA, veVEHVA, 64); err != nil {
			t.Error(err)
		}
		raw = p.Now().Sub(s)
	})
	if api-raw != r.tm.UserDMAAPISetup {
		t.Errorf("API-Raw difference = %v, want %v", api-raw, r.tm.UserDMAAPISetup)
	}
}

func TestSHMStoreAndLHMLoad(t *testing.T) {
	r := newRig(t, 2*units.MiB)
	seg, _ := r.host.ShmCreate(4096)
	vehva, _ := r.ve.ATB().Register(r.host.Memory, seg.Addr, seg.Size)
	in := NewInstr(r.tm, r.ve.ATB(), r.path)
	r.runIn(t, func(p *simtime.Proc) {
		if err := in.StoreWord(p, vehva, 0xdeadbeef); err != nil {
			t.Fatalf("StoreWord: %v", err)
		}
		w := in.Word(vehva)
		v, err := in.LoadWord(p, &w)
		if err != nil {
			t.Fatalf("LoadWord: %v", err)
		}
		if v != 0xdeadbeef {
			t.Errorf("LoadWord = %#x", v)
		}
	})
	if in.Loads() != 1 || in.Stores() != 1 {
		t.Errorf("counters = %d/%d", in.Loads(), in.Stores())
	}
}

func TestSHMBytesPipelineAndLHMDoesNot(t *testing.T) {
	r := newRig(t, 2*units.MiB)
	seg, _ := r.host.ShmCreate(1 << 20)
	vehva, _ := r.ve.ATB().Register(r.host.Memory, seg.Addr, seg.Size)
	in := NewInstr(r.tm, r.ve.ATB(), r.path)
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i)
	}
	var storeT, loadT simtime.Duration
	r.runIn(t, func(p *simtime.Proc) {
		s := p.Now()
		if err := in.StoreBytes(p, vehva, data); err != nil {
			t.Fatal(err)
		}
		storeT = p.Now().Sub(s)
		s = p.Now()
		out := make([]byte, 4096)
		if err := in.LoadBytes(p, vehva, out); err != nil {
			t.Fatal(err)
		}
		loadT = p.Now().Sub(s)
		for i := range out {
			if out[i] != data[i] {
				t.Fatalf("byte %d mismatch", i)
			}
		}
	})
	// 512 words: stores pipeline at ~124 ns/word (≈64 µs); loads round-trip
	// at 700 ns/word (≈358 µs).
	words := simtime.Duration(4096 / 8)
	wantStore := r.tm.SHMFirstWord + (words-1)*r.tm.SHMPerWord
	if storeT != wantStore {
		t.Errorf("StoreBytes = %v, want %v", storeT, wantStore)
	}
	wantLoad := words * r.tm.LHMPerWord
	if loadT != wantLoad {
		t.Errorf("LoadBytes = %v, want %v", loadT, wantLoad)
	}
	if loadT <= storeT {
		t.Error("LHM should be much slower than SHM")
	}
}

// LoadBytes reads straight into out, the last word's padding into a scratch
// word: an odd-length load allocates nothing.
func TestLoadBytesAllocatesNothing(t *testing.T) {
	r := newRig(t, 2*units.MiB)
	seg, _ := r.host.ShmCreate(4096)
	vehva, _ := r.ve.ATB().Register(r.host.Memory, seg.Addr, seg.Size)
	in := NewInstr(r.tm, r.ve.ATB(), r.path)
	data := []byte("thirteen byte")
	out := make([]byte, len(data))
	r.runIn(t, func(p *simtime.Proc) {
		if err := in.StoreBytes(p, vehva, data); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(10, func() {
			if err := in.LoadBytes(p, vehva, out); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("LoadBytes of %d bytes allocated %v times", len(out), n)
		}
	})
	if string(out) != string(data) || in.Loads() != 11*2 {
		t.Errorf("LoadBytes read %q in %d loads, want %q in 22", out, in.Loads(), data)
	}
}

// A LoadWord is quiet — the engine may issue it as a poll's load — while no
// fault rule can reach its site on this VE and no tracer records it; a quiet
// load is LoadCost, PeekWord's word and one CountLoads.
func TestQuietLoad(t *testing.T) {
	r := newRig(t, 2*units.MiB)
	seg, _ := r.host.ShmCreate(4096)
	vehva, _ := r.ve.ATB().Register(r.host.Memory, seg.Addr, seg.Size)
	in := NewInstr(r.tm, r.ve.ATB(), r.path)
	w := in.Word(vehva)
	var took simtime.Duration
	r.runIn(t, func(p *simtime.Proc) {
		if err := in.StoreWord(p, vehva, 42); err != nil {
			t.Fatal(err)
		}
		start := p.Now()
		if _, err := in.LoadWord(p, &w); err != nil {
			t.Fatal(err)
		}
		took = p.Now().Sub(start)
	})
	if took != in.LoadCost() {
		t.Errorf("LoadWord took %v, LoadCost = %v", took, in.LoadCost())
	}
	if v, err := in.PeekWord(&w); v != 42 || err != nil || in.Loads() != 1 {
		t.Errorf("PeekWord = %d, %v after %d loads; want 42 after the one LoadWord", v, err, in.Loads())
	}
	if in.CountLoads(1); in.Loads() != 2 {
		t.Errorf("Loads = %d after CountLoads(1), want 2", in.Loads())
	}
	if unregistered := in.Word(0xdead0000); !in.Quiet(&w) || in.Quiet(&unregistered) {
		t.Error("a registered word's load is quiet with nothing armed, an unregistered one's never")
	}
	for name, arm := range map[string]func(tm *topology.Timing){
		"tracer": func(tm *topology.Timing) { tm.Tracer = trace.NewTracer() },
		"LHM rule on this VE": func(tm *topology.Timing) {
			tm.Faults = faults.New(&faults.Plan{Rules: []faults.Rule{{Kind: faults.Jitter, Site: faults.SiteLHM, Node: 0}}})
		},
		"link rule on any VE": func(tm *topology.Timing) {
			tm.Faults = faults.New(&faults.Plan{Rules: []faults.Rule{{Kind: faults.LinkDown, Node: faults.AnyNode}}})
		},
		"rule on another site": nil,
	} {
		tm := r.tm
		quiet := arm == nil
		if quiet {
			tm.Faults = faults.New(&faults.Plan{Rules: []faults.Rule{{Kind: faults.DMAError, Site: faults.SiteUserDMA, Node: 0}}})
		} else {
			arm(&tm)
		}
		in := NewInstr(tm, r.ve.ATB(), r.path)
		if w := in.Word(vehva); in.Quiet(&w) != quiet {
			t.Errorf("%s: Quiet = %v, want %v", name, !quiet, quiet)
		}
	}
}

// A Word follows the DMAATB: a Register that maps its VEHVA makes its load
// quiet and readable, an Unregister makes it neither — the DMA exception
// LoadWord would raise.
func TestWordFollowsTheDMAATB(t *testing.T) {
	r := newRig(t, 2*units.MiB)
	atb := r.ve.ATB()
	first, _ := r.host.ShmCreate(4096)
	second, _ := r.host.ShmCreate(4096)
	in := NewInstr(r.tm, atb, r.path)
	vehva, _ := atb.Register(r.host.Memory, first.Addr, first.Size)
	next := vehva + mem.Addr(units.AlignUp(units.Bytes(first.Size), 64*units.KiB)) // where the next registration goes
	w := in.Word(next)
	if _, err := in.PeekWord(&w); in.Quiet(&w) || err == nil {
		t.Fatalf("an unregistered word: quiet %v, PeekWord error %v", in.Quiet(&w), err)
	}
	if err := r.host.WriteUint64(second.Addr, 42); err != nil {
		t.Fatal(err)
	}
	if got, _ := atb.Register(r.host.Memory, second.Addr, second.Size); got != next {
		t.Fatalf("registered at %#x, want %#x", got, next)
	}
	if v, err := in.PeekWord(&w); !in.Quiet(&w) || v != 42 || err != nil {
		t.Errorf("after Register: quiet %v, PeekWord %d, %v; want quiet, 42", in.Quiet(&w), v, err)
	}
	if err := atb.Unregister(next); err != nil {
		t.Fatal(err)
	}
	_, _, want := atb.Translate(next, 8)
	if _, err := in.PeekWord(&w); in.Quiet(&w) || err == nil || err.Error() != want.Error() {
		t.Errorf("after Unregister: quiet %v, PeekWord error %v; want not quiet, %v", in.Quiet(&w), err, want)
	}
	r.runIn(t, func(p *simtime.Proc) {
		if _, err := in.LoadWord(p, &w); err == nil || err.Error() != want.Error() || in.Loads() != 0 {
			t.Errorf("LoadWord after Unregister: %v after %d loads, want %v and none", err, in.Loads(), want)
		}
	})
}

func TestPrivilegedEngineSerializesRequests(t *testing.T) {
	// The system DMA engine is shared: two concurrent writes serialize.
	r := newRig(t, 2*units.MiB)
	size := (1 * units.MiB).Int64()
	h1, _ := r.host.Alloc(size)
	h2, _ := r.host.Alloc(size)
	v1, _ := r.ve.Alloc(size)
	v2, _ := r.ve.Alloc(size)
	d := NewPrivileged(r.eng, "ve0", r.tm, TranslateBulk4DMA,
		r.host.PageSize.Int64(), r.path, r.host.Memory, r.ve.Memory)
	var t1, t2 simtime.Time
	r.eng.Spawn("a", func(p *simtime.Proc) {
		if err := d.Write(p, v1, h1, size); err != nil {
			t.Error(err)
		}
		t1 = p.Now()
	})
	r.eng.Spawn("b", func(p *simtime.Proc) {
		if err := d.Write(p, v2, h2, size); err != nil {
			t.Error(err)
		}
		t2 = p.Now()
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if t2 < t1*2-simtime.Time(simtime.Microsecond) {
		t.Errorf("second transfer finished at %v, first at %v: not serialized", t2, t1)
	}
}

func TestNegativeSizesRejected(t *testing.T) {
	r := newRig(t, 2*units.MiB)
	d := NewPrivileged(r.eng, "ve0", r.tm, TranslateBulk4DMA,
		r.host.PageSize.Int64(), r.path, r.host.Memory, r.ve.Memory)
	u := NewUserDMA(r.eng, "c0", r.tm, r.ve.ATB(), r.path)
	r.runIn(t, func(p *simtime.Proc) {
		if err := d.Write(p, 0, 0, -1); err == nil {
			t.Error("negative privileged write accepted")
		}
		if err := u.Post(p, API, pcie.Up, 0, 0, -1); err == nil {
			t.Error("negative user DMA accepted")
		}
	})
}
