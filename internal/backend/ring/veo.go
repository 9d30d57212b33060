package ring

import (
	"fmt"

	"hamoffload/internal/core"
	"hamoffload/internal/simtime"
	"hamoffload/internal/veo"
	"hamoffload/internal/veos"
)

// This file is the part of both protocols that runs on the VEO API whatever
// the message path: application start, the init-kernel/ham_main bootstrap,
// and bulk data exchange (§III-C, §IV-A — "application start, initialisation
// and bulk data exchange still go through the VEO API").

// The target backend of a running VE process is kept with the process
// (veos.Process.SetRuntime): Register puts it there from the init kernel, and
// VE.Destroy, the only place a ring process dies, takes it away. So machines
// share no target state, whichever goroutines run them.

// targetOf returns the target backend registered for vp.
func targetOf(vp *veos.Process) (*Target, bool) {
	t, ok := vp.Runtime().(*Target)
	return t, ok
}

// Register builds the target backend of the process ctx runs in, for its
// ham_main to serve. The transport is built over the init kernel's own
// context; ham_main runs on the same one.
func Register(ctx *veos.Ctx, cfg TargetConfig) {
	vp := ctx.Context.Process()
	card := vp.Card()
	t := newTarget(cfg, ctx.P, card.Timing.HAMVEPollInterval, func() bool { return !card.Crashed() })
	t.nt = card.Timing.Tracer.Node(cfg.Self, cfg.Name, ctx.P)
	t.desc = core.NodeDescriptor{Name: fmt.Sprintf("ve%d", card.ID), Device: "NEC VE Type 10B"}
	t.heap = card.Mem.Heap
	t.cpu = ctx
	vp.SetRuntime(t)
}

// HamMain is the ham_main kernel of both protocols — the renamed main() of
// the target binary (§III-C): it runs the HAM-Offload runtime's message loop
// over the transport the init kernel registered.
func HamMain(ctx *veos.Ctx, _ []uint64) (uint64, error) {
	vp := ctx.Context.Process()
	t, ok := targetOf(vp)
	if !ok {
		return 1, fmt.Errorf("ring: ham_main before an init kernel on VE %d", vp.Card().ID)
	}
	rt := core.NewRuntime(t, t.desc.Arch)
	rt.SetTracer(t.nt)
	if err := rt.Serve(); err != nil {
		return 1, err
	}
	return 0, nil
}

// CardDial builds the transport to one VE card; ConnectCards fills in the
// facts every card shares (Node, Overhead).
type CardDial func(p *simtime.Proc, card *veos.Card, o Options, self, total int) (HostTransport, HostFacts, error)

// ConnectCards is Connect over VE cards: host memory and tracer come from
// the first card's machine.
func ConnectCards(p *simtime.Proc, cfg HostConfig, cards []*veos.Card, dial CardDial) (*Host, error) {
	if len(cards) == 0 {
		return nil, fmt.Errorf("%s: no target cards", cfg.Name)
	}
	cfg.Memory = cards[0].Host.Heap
	cfg.Tracer = cards[0].Timing.Tracer.Node(0, cfg.Name, p)
	return Connect(p, cfg, len(cards), func(o Options, i, self, total int) (HostTransport, HostFacts, error) {
		t, f, err := dial(p, cards[i], o, self, total)
		f.Node, f.Overhead = fmt.Sprintf("ve%d", cards[i].ID), cards[i].Timing.HAMHostOverhead
		return t, f, err
	})
}

// VE is a VE process started by Launch. Both host transports embed it: it
// carries the VEO bulk-data path and owns the process's lifetime.
type VE struct {
	P    *simtime.Proc
	Proc *veo.Proc
	Card *veos.Card
	// Init is the init kernel's result: for dmab, the HBM address of the
	// staging buffer it allocated, which the host releases when it abandons
	// a failed process.
	Init uint64
}

// Launch runs the connect sequence both protocols share (Fig. 4, §IV-A):
// create the VE process, load the library, let place lay out the
// communication area (its result becomes the init kernel's arguments), open
// a context, run the init kernel to completion, and start ham_main
// asynchronously. A failed launch leaves no VE process behind.
func Launch(p *simtime.Proc, card *veos.Card, lib, initSym, arch string, place func(*veo.Proc) ([]uint64, error)) (VE, error) {
	proc, err := veo.ProcCreate(p, card)
	if err != nil {
		return VE{}, err
	}
	ve := VE{P: p, Proc: proc, Card: card}
	started := false
	defer func() {
		if !started {
			_ = ve.Destroy()
		}
	}()
	lh, err := proc.LoadLibrary(p, lib)
	if err != nil {
		return VE{}, err
	}
	args, err := place(proc)
	if err != nil {
		return VE{}, err
	}
	ctx := proc.OpenContext(p)
	init, err := lh.GetSym(p, initSym)
	if err != nil {
		return VE{}, err
	}
	if ve.Init, err = ctx.CallAsync(p, init, args...).CallWaitResult(p); err != nil {
		return VE{}, fmt.Errorf("%s: %w", initSym, err)
	}
	// The architecture label is a property of the compiled target binary; it
	// cannot travel as a kernel argument, so it is recorded on the side.
	if t, ok := targetOf(proc.Process()); ok {
		t.desc.Arch = arch
	}
	hamMain, err := lh.GetSym(p, "ham_main")
	if err != nil {
		return VE{}, err
	}
	// ham_main never returns until terminated; do not wait on it.
	ctx.CallAsync(p, hamMain)
	started = true
	return ve, nil
}

// Destroy tears the VE process down (veo_proc_destroy). On a failed target
// it reaps whatever is left so the card can boot a fresh process; the error
// then only says a crash had already taken the process.
func (v VE) Destroy() error {
	v.Proc.Process().SetRuntime(nil)
	return v.Proc.Destroy(v.P)
}

// Put implements HostTransport through veo_write_mem. As in VEO, the source
// is the user's buffer where it lies: data is mapped into VH memory for the
// duration of the call, so the privileged DMA reads the caller's bytes.
func (v VE) Put(data []byte, dstAddr uint64) error {
	host := v.Card.Host
	src, err := host.AllocBytes(data)
	if err != nil {
		return err
	}
	defer func() { _ = host.Free(src) }()
	return v.Proc.WriteMem(v.P, dstAddr, uint64(src), int64(len(data)))
}

// Get implements HostTransport through veo_read_mem, the privileged DMA
// storing straight into dst; a failed transfer leaves dst untouched.
func (v VE) Get(srcAddr uint64, dst []byte) error {
	host := v.Card.Host
	to, err := host.AllocBytes(dst)
	if err != nil {
		return err
	}
	defer func() { _ = host.Free(to) }()
	return v.Proc.ReadMem(v.P, uint64(to), srcAddr, int64(len(dst)))
}
