package veos

import (
	"testing"

	"hamoffload/internal/dma"
	"hamoffload/internal/hostmem"
	"hamoffload/internal/mem"
	"hamoffload/internal/pcie"
	"hamoffload/internal/simtime"
	"hamoffload/internal/topology"
	"hamoffload/internal/units"
	"hamoffload/internal/vemem"
)

type rig struct {
	eng  *simtime.Engine
	tm   topology.Timing
	host *hostmem.Host
	card *Card
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
	card := NewCard(eng, 0, tm, host, veMem, path, dma.TranslateBulk4DMA)
	return &rig{eng: eng, tm: tm, host: host, card: card}
}

// run executes fn as the VH program process, then stops the simulation (so
// idle VE pollers do not keep it alive) and shuts down.
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

func TestProcessLifecycle(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *simtime.Proc) {
		vp, err := r.card.CreateProcess(p)
		if err != nil {
			t.Fatalf("CreateProcess: %v", err)
		}
		if p.Now() < simtime.Time(r.tm.ProcCreate) {
			t.Error("process creation cost not charged")
		}
		if r.card.Process() != vp {
			t.Error("Process() does not return the created process")
		}
		if _, err := r.card.CreateProcess(p); err == nil {
			t.Error("second CreateProcess should fail")
		}
		addr, err := vp.AllocMem(p, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.card.Mem.WriteAt([]byte("image"), mem.Addr(addr)); err != nil {
			t.Fatal(err)
		}
		if err := r.card.DestroyProcess(p); err != nil {
			t.Fatalf("DestroyProcess: %v", err)
		}
		if n := r.card.Mem.ResidentBytes(); n != 0 || !r.card.Mem.Mapped(mem.Addr(addr), 4096) {
			t.Errorf("after DestroyProcess %d bytes of the process's memory image are still resident (its mappings stay)", n)
		}
		if err := r.card.DestroyProcess(p); err == nil {
			t.Error("double DestroyProcess should fail")
		}
	})
}

func TestLibraryLoadAndSymbolLookup(t *testing.T) {
	RegisterLibrary("libtest.so", Library{
		"empty": func(ctx *Ctx, args []uint64) (uint64, error) { return 0, nil },
		"add":   func(ctx *Ctx, args []uint64) (uint64, error) { return args[0] + args[1], nil },
	})
	r := newRig(t)
	r.run(t, func(p *simtime.Proc) {
		vp, err := r.card.CreateProcess(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := vp.LoadLibrary(p, "libmissing.so"); err == nil {
			t.Error("loading unregistered library should fail")
		}
		if err := vp.LoadLibrary(p, "libtest.so"); err != nil {
			t.Fatalf("LoadLibrary: %v", err)
		}
		if _, err := vp.FindSymbol(p, "libtest.so", "add"); err != nil {
			t.Errorf("FindSymbol(add): %v", err)
		}
		if _, err := vp.FindSymbol(p, "libtest.so", "nope"); err == nil {
			t.Error("FindSymbol of missing symbol should fail")
		}
		if _, err := vp.FindSymbol(p, "libmissing.so", "add"); err == nil {
			t.Error("FindSymbol in a library that is not loaded should fail")
		}
	})
}

func TestCallRoundTripExecutesKernel(t *testing.T) {
	RegisterLibrary("libadd.so", Library{
		"add": func(ctx *Ctx, args []uint64) (uint64, error) { return args[0] + args[1], nil },
	})
	r := newRig(t)
	r.run(t, func(p *simtime.Proc) {
		vp, err := r.card.CreateProcess(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := vp.LoadLibrary(p, "libadd.so"); err != nil {
			t.Fatal(err)
		}
		k, err := vp.FindSymbol(p, "libadd.so", "add")
		if err != nil {
			t.Fatal(err)
		}
		ctx := vp.OpenContext(p)
		cmd := ctx.Submit(p, k, []uint64{40, 2})
		v, err := ctx.Wait(p, cmd)
		if err != nil {
			t.Fatalf("Wait: %v", err)
		}
		if v != 42 {
			t.Errorf("kernel result = %d, want 42", v)
		}
	})
}

func TestContextsRunConcurrently(t *testing.T) {
	// Two contexts execute long kernels in parallel: total time ≈ one
	// kernel, not two.
	kernelTime := 10 * simtime.Millisecond
	RegisterLibrary("libslow.so", Library{
		"slow": func(ctx *Ctx, args []uint64) (uint64, error) {
			ctx.Proc.Sleep(kernelTime)
			return 0, nil
		},
	})
	r := newRig(t)
	r.run(t, func(p *simtime.Proc) {
		vp, _ := r.card.CreateProcess(p)
		if err := vp.LoadLibrary(p, "libslow.so"); err != nil {
			t.Fatal(err)
		}
		k, _ := vp.FindSymbol(p, "libslow.so", "slow")
		c1 := vp.OpenContext(p)
		c2 := vp.OpenContext(p)
		start := p.Now()
		cmd1 := c1.Submit(p, k, nil)
		cmd2 := c2.Submit(p, k, nil)
		if _, err := c1.Wait(p, cmd1); err != nil {
			t.Fatal(err)
		}
		if _, err := c2.Wait(p, cmd2); err != nil {
			t.Fatal(err)
		}
		total := p.Now().Sub(start)
		if total > kernelTime+kernelTime/2 {
			t.Errorf("two contexts took %v, want ≈%v (parallel)", total, kernelTime)
		}
	})
}

// Two VH processes wait on two commands of one context at once: each parks
// on its own command.
func TestTwoWaitersOnOneContext(t *testing.T) {
	ran := 0
	RegisterLibrary("libnap.so", Library{
		"nap": func(ctx *Ctx, args []uint64) (uint64, error) {
			ctx.Proc.Sleep(simtime.Duration(args[0]) * simtime.Microsecond)
			ran++
			return args[0], nil
		},
	})
	r := newRig(t)
	r.run(t, func(p *simtime.Proc) {
		vp, _ := r.card.CreateProcess(p)
		if err := vp.LoadLibrary(p, "libnap.so"); err != nil {
			t.Fatal(err)
		}
		k, _ := vp.FindSymbol(p, "libnap.so", "nap")
		ctx := vp.OpenContext(p)
		done := simtime.NewEvent(r.eng)
		for _, us := range []uint64{30, 10} {
			p.Engine().Spawn("waiter", func(p *simtime.Proc) {
				if v, err := ctx.Wait(p, ctx.Submit(p, k, []uint64{us})); err != nil || v != us {
					t.Errorf("Wait = %d, %v; want %d", v, err, us)
				}
				if us == 10 {
					done.Fire()
				}
			})
		}
		done.Wait(p)
		p.Sleep(100 * simtime.Microsecond)
		if ran != 2 {
			t.Errorf("%d kernels ran, want 2", ran)
		}
	})
}

func TestDMAWriteReadThroughVEOS(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *simtime.Proc) {
		vp, _ := r.card.CreateProcess(p)
		hAddr, err := r.host.Alloc(4096)
		if err != nil {
			t.Fatal(err)
		}
		vAddr, err := vp.AllocMem(p, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.host.WriteAt([]byte("through veos"), hAddr); err != nil {
			t.Fatal(err)
		}
		if err := r.card.DMAWrite(p, vAddr, uint64(hAddr), 12); err != nil {
			t.Fatalf("DMAWrite: %v", err)
		}
		// Read it back into a different host location.
		hAddr2, _ := r.host.Alloc(4096)
		if err := r.card.DMARead(p, uint64(hAddr2), vAddr, 12); err != nil {
			t.Fatalf("DMARead: %v", err)
		}
		got := make([]byte, 12)
		if err := r.host.ReadAt(got, hAddr2); err != nil {
			t.Fatal(err)
		}
		if string(got) != "through veos" {
			t.Errorf("round trip = %q", got)
		}
	})
}

func TestKernelCtxFacilities(t *testing.T) {
	var vectorTime simtime.Duration
	RegisterLibrary("libctx.so", Library{
		"probe": func(ctx *Ctx, args []uint64) (uint64, error) {
			s := ctx.Proc.Now()
			ctx.ChargeVector(1e9, 0, 8)
			vectorTime = ctx.Proc.Now().Sub(s)
			if ctx.UserDMA() == nil || ctx.Instr() == nil {
				return 1, nil
			}
			return 0, nil
		},
	})
	r := newRig(t)
	r.run(t, func(p *simtime.Proc) {
		vp, _ := r.card.CreateProcess(p)
		if err := vp.LoadLibrary(p, "libctx.so"); err != nil {
			t.Fatal(err)
		}
		k, _ := vp.FindSymbol(p, "libctx.so", "probe")
		ctx := vp.OpenContext(p)
		v, err := ctx.Wait(p, ctx.Submit(p, k, nil))
		if err != nil || v != 0 {
			t.Fatalf("probe = %d, %v", v, err)
		}
	})
	if vectorTime <= 0 {
		t.Error("compute charges not applied")
	}
}

func TestIdleWorkerBacksOff(t *testing.T) {
	// An idle VE context must not flood the event queue: over 100 ms of
	// idle simulated time, the worker should take far fewer than the
	// 50k polls a fixed 2 µs interval would produce.
	r := newRig(t)
	r.run(t, func(p *simtime.Proc) {
		vp, _ := r.card.CreateProcess(p)
		vp.OpenContext(p)
		p.Sleep(100 * simtime.Millisecond)
	})
	if ev := r.eng.Events(); ev > 5000 {
		t.Errorf("idle simulation processed %d events, backoff not working", ev)
	}
}

// An idle worker is parked on its command poll's watch: the card's crash or
// the process's destroy wakes it on the loop's own grid, at the first poll at
// or after it, and the worker ends there. Nothing else is left to run, so Run
// ends at that poll, not in a deadlock.
func TestIdleWorkerSeesCrashAndStopOnItsGrid(t *testing.T) {
	for _, tc := range []struct {
		name string
		end  func(p *simtime.Proc, c *Card)
	}{
		{"crash", func(_ *simtime.Proc, c *Card) { c.Kill() }},
		{"destroy", func(p *simtime.Proc, c *Card) {
			if err := c.DestroyProcess(p); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t)
			var idleFrom, ended simtime.Time
			r.eng.Spawn("vh-main", func(p *simtime.Proc) {
				vp, _ := r.card.CreateProcess(p)
				vp.OpenContext(p)
				idleFrom = p.Now() // the worker's first poll, at its spawn
				p.Sleep(3*simtime.Millisecond + 1)
				ended = p.Now()
				tc.end(p, r.card)
			})
			if err := r.eng.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
			b := simtime.Backoff{Base: r.tm.VEOCmdPollInterval, After: 500 * simtime.Microsecond, Max: 128 * r.tm.VEOCmdPollInterval}
			poll := idleFrom
			for poll < ended {
				poll = poll.Add(b.Gap())
			}
			if r.eng.Now() != poll {
				t.Errorf("the worker ended at %v; the %s came at %v, the loop's next poll was at %v", r.eng.Now(), tc.name, ended, poll)
			}
		})
	}
}
