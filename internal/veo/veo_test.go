package veo

import (
	"testing"

	"hamoffload/internal/dma"
	"hamoffload/internal/hostmem"
	"hamoffload/internal/pcie"
	"hamoffload/internal/simtime"
	"hamoffload/internal/topology"
	"hamoffload/internal/units"
	"hamoffload/internal/vemem"
	"hamoffload/internal/veos"
)

type rig struct {
	eng  *simtime.Engine
	tm   topology.Timing
	host *hostmem.Host
	card *veos.Card
}

func newRig(t *testing.T) *rig {
	t.Helper()
	eng := simtime.NewEngine()
	tm := topology.DefaultTiming()
	host, err := hostmem.New("vh", 2*units.GiB, tm.HostPageSize)
	if err != nil {
		t.Fatal(err)
	}
	veMem, err := vemem.New("ve0", 4*units.GiB)
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
	return &rig{eng: eng, tm: tm, host: host,
		card: veos.NewCard(eng, 0, tm, host, veMem, path, dma.TranslateBulk4DMA)}
}

func (r *rig) run(t *testing.T, fn func(p *simtime.Proc)) {
	t.Helper()
	r.eng.Spawn("vh-main", func(p *simtime.Proc) {
		fn(p)
		r.eng.Stop()
	})
	if err := r.eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	r.eng.Shutdown()
}

func TestVEOWorkflowMirrorsCAPI(t *testing.T) {
	// The canonical VEO sequence: proc_create, load_library, get_sym,
	// context_open, call_async, call_wait_result.
	veos.RegisterLibrary("libveok.so", veos.Library{
		"mul": func(ctx *veos.Ctx, args []uint64) (uint64, error) {
			return args[0] * args[1], nil
		},
	})
	r := newRig(t)
	r.run(t, func(p *simtime.Proc) {
		h, err := ProcCreate(p, r.card)
		if err != nil {
			t.Fatalf("ProcCreate: %v", err)
		}
		lib, err := h.LoadLibrary(p, "libveok.so")
		if err != nil {
			t.Fatalf("LoadLibrary: %v", err)
		}
		sym, err := lib.GetSym(p, "mul")
		if err != nil {
			t.Fatalf("GetSym: %v", err)
		}
		if sym.Name() != "mul" {
			t.Errorf("Name = %q", sym.Name())
		}
		ctx := h.OpenContext(p)
		req := ctx.CallAsync(p, sym, 6, 7)
		v, err := req.CallWaitResult(p)
		if err != nil {
			t.Fatalf("CallWaitResult: %v", err)
		}
		if v != 42 {
			t.Errorf("result = %d, want 42", v)
		}
		if err := h.Destroy(p); err != nil {
			t.Fatalf("Destroy: %v", err)
		}
	})
}

func TestMemoryAPIRoundTrip(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *simtime.Proc) {
		h, err := ProcCreate(p, r.card)
		if err != nil {
			t.Fatal(err)
		}
		veBuf, err := h.AllocMem(p, 1024)
		if err != nil {
			t.Fatalf("AllocMem: %v", err)
		}
		src, _ := r.host.Alloc(1024)
		dst, _ := r.host.Alloc(1024)
		if err := r.host.WriteAt([]byte("veo api"), src); err != nil {
			t.Fatal(err)
		}
		if err := h.WriteMem(p, veBuf, uint64(src), 7); err != nil {
			t.Fatalf("WriteMem: %v", err)
		}
		if err := h.ReadMem(p, uint64(dst), veBuf, 7); err != nil {
			t.Fatalf("ReadMem: %v", err)
		}
		got := make([]byte, 7)
		if err := r.host.ReadAt(got, dst); err != nil {
			t.Fatal(err)
		}
		if string(got) != "veo api" {
			t.Errorf("round trip = %q", got)
		}
	})
}

// TestGetSymResolvesInItsLibrary: two loaded libraries export the same
// symbol, and each handle's GetSym resolves it in its own library, as
// veo_get_sym(proc, libhdl, sym) does — on every lookup, whatever the
// order the process keeps its libraries in.
func TestGetSymResolvesInItsLibrary(t *testing.T) {
	names := []string{"libsame_a.so", "libsame_b.so"}
	for i, name := range names {
		id := uint64(i)
		veos.RegisterLibrary(name, veos.Library{
			"f": func(*veos.Ctx, []uint64) (uint64, error) { return id, nil },
		})
	}
	r := newRig(t)
	r.run(t, func(p *simtime.Proc) {
		h, err := ProcCreate(p, r.card)
		if err != nil {
			t.Fatalf("ProcCreate: %v", err)
		}
		var libs []LibHandle
		for _, name := range names {
			lib, err := h.LoadLibrary(p, name)
			if err != nil {
				t.Fatalf("LoadLibrary(%s): %v", name, err)
			}
			libs = append(libs, lib)
		}
		for want, lib := range libs {
			wrong := 0
			for range 200 {
				sym, err := lib.GetSym(p, "f")
				if err != nil {
					t.Fatalf("GetSym(f) in %s: %v", names[want], err)
				}
				if got, _ := sym.k(nil, nil); got != uint64(want) {
					wrong++
				}
			}
			if wrong > 0 {
				t.Errorf("GetSym(f) on the %s handle resolved in the other library %d times of 200", names[want], wrong)
			}
		}
	})
}

func TestGetSymOnNilHandle(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *simtime.Proc) {
		var l LibHandle
		if _, err := l.GetSym(p, "x"); err == nil {
			t.Error("GetSym on zero handle should fail")
		}
	})
}

func TestAsyncCallsOverlapWithHostWork(t *testing.T) {
	// veo_call_async returns before the kernel completes: the host can do
	// 5 ms of its own work while a 5 ms kernel runs, for ≈5 ms total.
	kernelTime := 5 * simtime.Millisecond
	veos.RegisterLibrary("libasync.so", veos.Library{
		"slow": func(ctx *veos.Ctx, args []uint64) (uint64, error) {
			ctx.Proc.Sleep(kernelTime)
			return 1, nil
		},
	})
	r := newRig(t)
	r.run(t, func(p *simtime.Proc) {
		h, _ := ProcCreate(p, r.card)
		lib, err := h.LoadLibrary(p, "libasync.so")
		if err != nil {
			t.Fatal(err)
		}
		sym, _ := lib.GetSym(p, "slow")
		ctx := h.OpenContext(p)
		start := p.Now()
		req := ctx.CallAsync(p, sym, 0)
		p.Sleep(kernelTime) // overlapping host work
		if _, err := req.CallWaitResult(p); err != nil {
			t.Fatal(err)
		}
		total := p.Now().Sub(start)
		if total > kernelTime+kernelTime/2 {
			t.Errorf("overlapped total = %v, want ≈%v", total, kernelTime)
		}
	})
}

// TestCallAllocs pins a warm VEO call — CallAsync then CallWaitResult —
// at the three objects it makes: the argument slice the command keeps, the
// VEOS command and its completion event. The kernel's Ctx is the worker's,
// made once; the submission queue, the worker's wake on it and the result
// poll allocate nothing.
func TestCallAllocs(t *testing.T) {
	veos.RegisterLibrary("libveoalloc.so", veos.Library{
		"add": func(ctx *veos.Ctx, args []uint64) (uint64, error) { return args[0] + args[1], nil },
	})
	r := newRig(t)
	r.run(t, func(p *simtime.Proc) {
		h, err := ProcCreate(p, r.card)
		if err != nil {
			t.Fatalf("ProcCreate: %v", err)
		}
		lib, err := h.LoadLibrary(p, "libveoalloc.so")
		if err != nil {
			t.Fatalf("LoadLibrary: %v", err)
		}
		sym, err := lib.GetSym(p, "add")
		if err != nil {
			t.Fatalf("GetSym: %v", err)
		}
		ctx := h.OpenContext(p)
		var v uint64
		call := func() { v, err = ctx.CallAsync(p, sym, 40, 2).CallWaitResult(p) }
		call()
		n := testing.AllocsPerRun(50, call)
		if v != 42 || err != nil {
			t.Fatalf("call = %d, %v; want 42, nil", v, err)
		}
		if n != 3 {
			t.Errorf("a warm VEO call allocates %.1f objects, want 3", n)
		}
	})
}
