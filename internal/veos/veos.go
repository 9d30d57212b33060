// Package veos models the Vector Engine Operating System layer of the
// SX-Aurora platform (paper §I-B): the per-VE veos daemon with its DMA
// manager, the per-process VH pseudo-process that services syscalls, and the
// VE-side execution contexts that pop and run offloaded commands. The VEs
// run no kernel of their own — every OS interaction crosses PCIe to the VH,
// which is exactly where the privileged-DMA latency of the VEO protocol
// comes from.
package veos

import (
	"errors"
	"fmt"
	"maps"

	"hamoffload/internal/dma"
	"hamoffload/internal/faults"
	"hamoffload/internal/hostmem"
	"hamoffload/internal/mem"
	"hamoffload/internal/pcie"
	"hamoffload/internal/simtime"
	"hamoffload/internal/topology"
	"hamoffload/internal/vecore"
	"hamoffload/internal/vemem"
)

// ErrCrashed marks operations against a VE whose process has crashed (a VE
// exception, or an injected faults.Crash). It is a permanent failure: the
// backends map it to core.ErrNodeFailed, and the card serves nothing until
// the dead process is destroyed and a fresh one created.
var ErrCrashed = errors.New("veos: VE process crashed")

// Kernel is a function loadable into a VE process — the simulation's stand-in
// for a symbol in an NCC-compiled VE shared library. Arguments and the return
// value are raw 64-bit words, matching VEO's restriction to basic types.
type Kernel func(ctx *Ctx, args []uint64) (uint64, error)

// Library is a named symbol table, the analog of a .so built for the VE.
type Library map[string]Kernel

// Card bundles one VE's hardware and OS state: its memory, privileged DMA
// engine (driven by the veos daemon), PCIe link, and at most one VE process.
type Card struct {
	ID     int
	Eng    *simtime.Engine
	Timing topology.Timing
	Mem    *vemem.VE
	Priv   *dma.Privileged
	Path   pcie.Path // daemon-socket → VE route
	Host   *hostmem.Host
	// Cores arbitrates the VE's compute cores between concurrently running
	// kernels (contexts): a kernel charging work on n cores holds n units
	// for its duration, so full-width kernels serialise while narrower ones
	// overlap — VEOS's scheduling responsibility (§I-B) at kernel grain.
	Cores *simtime.Semaphore

	proc    *Process
	live    int // execution contexts whose worker has not returned, of any process (Ctx.charge)
	crashed bool
	// watches are notified when the process crashes or stops: the polls of
	// its contexts, its serve loop and its host (Notifies).
	watches []*simtime.Watch
}

// Notifies makes the crash and the stop of the card's process notify w, for
// a poll that reads them; a fresh process starts with none.
func (c *Card) Notifies(w *simtime.Watch) { c.watches = append(c.watches, w) }

// notify notifies the card's watches.
func (c *Card) notify() {
	for _, w := range c.watches {
		w.Notify()
	}
}

// NewCard assembles a VE card. The privileged DMA engine translates with
// mode over the host's page size.
func NewCard(eng *simtime.Engine, id int, t topology.Timing, host *hostmem.Host,
	veMem *vemem.VE, path pcie.Path, mode dma.TranslateMode) *Card {
	name := fmt.Sprintf("ve%d", id)
	return &Card{
		ID:     id,
		Eng:    eng,
		Timing: t,
		Mem:    veMem,
		Priv: dma.NewPrivileged(eng, name, t, mode, host.PageSize.Int64(),
			path, host.Memory, veMem.Memory),
		Path:  path,
		Host:  host,
		Cores: simtime.NewSemaphore(eng, name+"-cores", topology.VEType10B().Cores),
	}
}

// Process returns the running VE process, if any.
func (c *Card) Process() *Process { return c.proc }

// Crashed reports whether the card's VE process has crashed. The target
// serve loops poll it to bail out instead of spinning on a dead machine.
func (c *Card) Crashed() bool { return c.crashed }

// Kill crashes the VE process: execution contexts stop after their current
// command, every queued command fails with ErrCrashed, and all further VEOS
// services on the card refuse work until recovery (DestroyProcess followed
// by a fresh CreateProcess). Chaos tests and the faults.Crash schedule both
// funnel through here.
func (c *Card) Kill() {
	if c.crashed {
		return
	}
	c.crashed = true
	if c.proc != nil {
		for _, ctx := range c.proc.ctxs {
			ctx.stop = true
			for {
				cmd, ok := ctx.cmdQ.TryPop()
				if !ok {
					break
				}
				cmd.err = fmt.Errorf("ve %d: %w", c.ID, ErrCrashed)
				cmd.done.Fire()
			}
		}
	}
	c.notify()
}

// enterVEOS runs the shared fault hooks of every VEOS daemon entry point:
// a scheduled stall window delays the caller, a fail-slow rule stretches
// the daemon's IPC service time, a scheduled crash kills the card, and a
// dead card refuses service, once the caller has paid its debt.
func (c *Card) enterVEOS(p *simtime.Proc) error {
	p.Pay()
	if inj := c.Timing.Faults; inj != nil {
		if d := inj.StallDelay(p.Now(), c.ID); d > 0 {
			c.Timing.Tracer.Instant(p, "fault", "veos-stall")
			p.Sleep(d)
		}
		if d := inj.SlowDelay(p.Now(), faults.SiteVEOS, c.ID, c.Timing.IPCUserVEOS); d > 0 {
			c.Timing.Tracer.Instant(p, "fault", "slow-down veos")
			p.Sleep(d)
		}
		if inj.CrashNow(p.Now(), c.ID) {
			c.Timing.Tracer.Instant(p, "fault", "ve-crash")
			c.Kill()
		}
	}
	if c.crashed {
		return fmt.Errorf("ve %d: %w", c.ID, ErrCrashed)
	}
	return nil
}

// CreateProcess boots a VE process on the card (veos work: load the loader,
// set up memory management). The calling process p is the VH program; it
// blocks for the creation time. Only one process per card is modelled, like
// the dedicated-VE usage in the paper's benchmarks.
func (c *Card) CreateProcess(p *simtime.Proc) (*Process, error) {
	if c.proc != nil {
		return nil, fmt.Errorf("veos: VE %d already runs a process", c.ID)
	}
	c.crashed = false // booting a fresh process recovers a crashed card
	clear(c.watches)
	c.watches = c.watches[:0]
	p.Sleep(c.Timing.ProcCreate)
	vp := &Process{
		card:  c,
		libs:  make(map[string]Library),
		model: vecore.DefaultModel(),
	}
	c.proc = vp
	return vp, nil
}

// DestroyProcess tears the VE process down; its contexts stop after their
// current command, and as after veo_proc_destroy its memory image is gone.
func (c *Card) DestroyProcess(p *simtime.Proc) error {
	if c.proc == nil {
		return fmt.Errorf("veos: VE %d runs no process", c.ID)
	}
	for _, ctx := range c.proc.ctxs {
		ctx.stop = true
	}
	c.proc = nil
	c.Mem.Discard()
	c.notify()
	return nil
}

// DMAWrite services a veo_write_mem: the VH process p pays the user-space
// library cost and the IPC into the veos daemon, whose DMA manager performs
// the privileged transfer of n bytes from VH hostAddr into VE veAddr.
func (c *Card) DMAWrite(p *simtime.Proc, veAddr, hostAddr uint64, n int64) error {
	if err := c.enterVEOS(p); err != nil {
		return err
	}
	defer c.Timing.Tracer.Span(p, "veo", "veo_write_mem")()
	p.Sleep(c.Timing.VEOLibOverhead + c.Timing.IPCUserVEOS + c.Timing.DriverHop)
	if err := c.Priv.Write(p, memAddr(veAddr), memAddr(hostAddr), n); err != nil {
		return err
	}
	p.Sleep(c.Timing.IPCUserVEOS)
	return nil
}

// DMARead services a veo_read_mem: n bytes from VE veAddr into VH hostAddr.
func (c *Card) DMARead(p *simtime.Proc, hostAddr, veAddr uint64, n int64) error {
	if err := c.enterVEOS(p); err != nil {
		return err
	}
	defer c.Timing.Tracer.Span(p, "veo", "veo_read_mem")()
	p.Sleep(c.Timing.VEOLibOverhead + c.Timing.IPCUserVEOS + c.Timing.DriverHop)
	if err := c.Priv.Read(p, memAddr(hostAddr), memAddr(veAddr), n); err != nil {
		return err
	}
	p.Sleep(c.Timing.IPCUserVEOS)
	return nil
}

// Process is one VE process: loaded libraries, HBM allocations, and its
// execution contexts.
type Process struct {
	card  *Card
	libs  map[string]Library
	ctxs  []*Context
	model vecore.Model
	rt    any // the VE-side runtime's state (SetRuntime)
}

// Card returns the card the process runs on.
func (vp *Process) Card() *Card { return vp.card }

// SetRuntime keeps v with the process: the state of the runtime its program
// runs (ring's target backend). It lives as long as the process does, and no
// longer than the caller keeps it: nothing else refers to it.
func (vp *Process) SetRuntime(v any) { vp.rt = v }

// Runtime returns what SetRuntime last kept with the process, or nil.
func (vp *Process) Runtime() any { return vp.rt }

// globalLibs is the registry of "compiled" VE libraries. Registering a
// library is the simulation analog of building a .so with NCC; loading it
// into a process charges the dlopen cost.
var globalLibs = map[string]Library{}

// RegisterLibrary publishes a library so processes can load it by name.
// Typically called from init functions, mirroring static registration of
// compiled artifacts. Re-registering a name overwrites it (like replacing a
// .so on disk).
func RegisterLibrary(name string, lib Library) {
	globalLibs[name] = maps.Clone(lib)
}

// LoadLibrary loads a registered library into the process, charging the
// dlopen-on-VE cost proportional to the symbol count.
func (vp *Process) LoadLibrary(p *simtime.Proc, name string) error {
	lib, ok := globalLibs[name]
	if !ok {
		return fmt.Errorf("veos: library %q not registered", name)
	}
	t := vp.card.Timing
	p.Sleep(t.LoadLibraryBase + simtime.Duration(len(lib))*t.LoadLibraryPerKiB)
	vp.libs[name] = lib
	return nil
}

// FindSymbol resolves a kernel by symbol name in the loaded library lib,
// as veo_get_sym(proc, libhdl, sym) does, charging the lookup cost.
func (vp *Process) FindSymbol(p *simtime.Proc, lib, sym string) (Kernel, error) {
	p.Sleep(vp.card.Timing.GetSym)
	k, ok := vp.libs[lib][sym]
	if !ok {
		return nil, fmt.Errorf("veos: symbol %q not found in loaded library %q", sym, lib)
	}
	return k, nil
}

// AllocMem allocates n bytes of HBM on behalf of the VH (veo_alloc_mem):
// an IPC round trip plus allocator work.
func (vp *Process) AllocMem(p *simtime.Proc, n int64) (uint64, error) {
	if err := vp.card.enterVEOS(p); err != nil {
		return 0, err
	}
	p.Sleep(vp.card.Timing.AllocMem)
	addr, err := vp.card.Mem.Alloc(n)
	return uint64(addr), err
}

// Loads returns how many words the process's contexts have loaded from host
// memory with LHM (dma.Instr.Loads).
func (vp *Process) Loads() int64 {
	var n int64
	for _, ctx := range vp.ctxs {
		n += ctx.instr.Loads()
	}
	return n
}

// memAddr converts the raw 64-bit addresses used at the VEO API surface into
// typed simulation addresses.
func memAddr(a uint64) mem.Addr { return mem.Addr(a) }
