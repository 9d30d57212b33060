// Package dmab is the placement and the byte movers of the paper's DMA-based
// communication protocol (§IV, Fig. 8); the slot-ring protocol itself lives
// in backend/ring. All communication buffers sit in Vector Host memory,
// inside a SystemV shared-memory segment registered in the VE's DMAATB
// (Fig. 7). The VE initiates every transfer: it polls the receive flags with
// LHM instructions, fetches messages with user DMA, and pushes result
// messages and flags back with SHM stores. All host-side protocol steps
// become local memory accesses, which is what cuts the empty-offload cost
// from ~430 µs (VEO protocol) to ~6 µs.
//
// Application start, initialisation and bulk data exchange still go through
// the VEO API, exactly as in the paper.
package dmab

import (
	"fmt"

	"hamoffload/internal/backend/ring"
	"hamoffload/internal/backend/slots"
	"hamoffload/internal/dma"
	"hamoffload/internal/hostmem"
	"hamoffload/internal/mem"
	"hamoffload/internal/pcie"
	"hamoffload/internal/simtime"
	"hamoffload/internal/veo"
	"hamoffload/internal/veos"
)

// LibraryName is the VE library with the DMA backend's kernels.
const LibraryName = "libham-offload-dmab.so"

func init() {
	veos.RegisterLibrary(LibraryName, veos.Library{
		"ham_dmab_init": hamDMABInit,
		"ham_main":      ring.HamMain,
	})
}

// Options configures the protocol.
type Options struct {
	ring.Options
	// ResultViaDMA returns even small results through a user-DMA write
	// instead of SHM stores — slower for small messages per §V-B, kept as
	// an ablation knob.
	ResultViaDMA bool
	// NodeBase offsets the target node ids: the cards become nodes
	// NodeBase+1 .. NodeBase+len(cards). Zero for a standalone machine; the
	// cluster backend assigns global ranks through it.
	NodeBase int
	// TotalNodes overrides the application's node count (default
	// len(cards)+1); cluster applications span more nodes than one machine.
	TotalNodes int
}

// Host is the initiator-side backend on the Vector Host.
type Host = ring.Host

// layout describes the communication area inside the VH shared-memory
// segment: per receive slot a flag and its message buffer, per send slot a
// flag and its inline result, then the overflow buffers. base is the
// segment's VH address on the host side, its DMAATB mapping (VEHVA) on the
// VE side. Each region starts where the one before would hold its
// NumBuffers-th element.
type layout struct {
	ring.Options
	base mem.Addr
}

func (l layout) recvFlag(slot int) mem.Addr {
	return l.base + mem.Addr(slot*(slots.FlagBits+l.BufSize))
}
func (l layout) recvBuf(slot int) mem.Addr { return l.recvFlag(slot) + slots.FlagBits }
func (l layout) sendFlag(slot int) mem.Addr {
	return l.recvFlag(l.NumBuffers) + mem.Addr(slot*(slots.FlagBits+l.ResultInline))
}
func (l layout) sendInline(slot int) mem.Addr { return l.sendFlag(slot) + slots.FlagBits }
func (l layout) overflow(slot int) mem.Addr {
	return l.sendFlag(l.NumBuffers) + mem.Addr(slot*l.BufSize)
}
func (l layout) totalSize() int64 { return int64(l.overflow(l.NumBuffers) - l.base) }

// Connect performs the full §IV-A setup for each card: VE process creation
// and library load via VEO, SysV shared-memory creation on the VH, DMAATB
// registration on the VE (through the ham_dmab_init kernel), and the
// asynchronous start of ham_main.
func Connect(p *simtime.Proc, cards []*veos.Card, opts Options) (*Host, error) {
	cfg := ring.HostConfig{Name: "dmab", Options: opts.Options, NodeBase: opts.NodeBase, TotalNodes: opts.TotalNodes}
	return ring.ConnectCards(p, cfg, cards, func(p *simtime.Proc, card *veos.Card, o ring.Options, self, total int) (ring.HostTransport, ring.HostFacts, error) {
		t := &hostSide{}
		ve, err := ring.Launch(p, card, LibraryName, "ham_dmab_init", o.TargetArch, func(*veo.Proc) ([]uint64, error) {
			seg, err := card.Host.ShmCreate(layout{Options: o}.totalSize())
			if err != nil {
				return nil, fmt.Errorf("dmab: creating shm segment: %w", err)
			}
			t.seg, t.lay = seg, layout{Options: o, base: seg.Addr}
			t.results = make([]mem.Word, o.NumBuffers)
			for i := range t.results {
				t.results[i] = card.Host.WordAt(t.lay.sendFlag(i))
			}
			var viaDMA uint64
			if opts.ResultViaDMA {
				viaDMA = 1
			}
			return []uint64{uint64(seg.Key), uint64(o.NumBuffers), uint64(o.BufSize), uint64(o.ResultInline),
				uint64(self), uint64(total), viaDMA}, nil
		})
		if err != nil {
			// A failed connect must not leak the shm segment either.
			if t.seg != nil {
				_ = card.Host.ShmRemove(t.seg.Key)
			}
			return nil, ring.HostFacts{}, err
		}
		t.VE = ve
		// The host polls local memory, which is free and never errors: the
		// re-check gap is the only cost of a miss.
		return t, ring.HostFacts{PollGap: card.Timing.HAMHostPollInterval}, nil
	})
}

// hostSide is the host half of Fig. 8: every protocol step is a local VH
// memory access into the shared segment.
type hostSide struct {
	ring.VE
	seg     *hostmem.ShmSegment
	lay     layout
	results []mem.Word // the send flags, resolved for PollResult
}

// WriteMessage implements ring.HostTransport with a local store.
func (t *hostSide) WriteMessage(slot int, msg []byte) error {
	if err := t.Card.Host.WriteAt(msg, t.lay.recvBuf(slot)); err != nil {
		return err
	}
	t.P.Sleep(simtime.BytesOver(int64(len(msg)), t.Card.Timing.HostMemCopyRate))
	return nil
}

// PublishFlag implements ring.HostTransport with a local word store.
func (t *hostSide) PublishFlag(slot int, word uint64) error {
	return t.Card.Host.WriteUint64(t.lay.recvFlag(slot), word)
}

// PollResult implements ring.HostTransport: the VE pushed the flag into VH
// memory, so the poll is a local load.
func (t *hostSide) PollResult(slot int) (uint64, error) {
	return t.results[slot].Load()
}

// Watch implements ring.HostTransport: the VE's SHM stores land the result
// flags in VH memory, and the card's crash ends Alive.
func (t *hostSide) Watch(w *simtime.Watch) {
	for i := range t.results {
		t.results[i].Watch(w)
	}
	t.Card.Notifies(w)
}

// ReadResult implements ring.HostTransport.
func (t *hostSide) ReadResult(slot int, inline, overflow []byte) error {
	if err := t.Card.Host.ReadAt(inline, t.lay.sendInline(slot)); err != nil {
		return err
	}
	if len(overflow) > 0 {
		return t.Card.Host.ReadAt(overflow, t.lay.overflow(slot))
	}
	return nil
}

// Alive implements ring.HostTransport. Local polls cannot fail — a dead VE
// shows up as silence — so liveness comes from the card's crash state.
func (t *hostSide) Alive() bool { return !t.Card.Crashed() }

// Close implements ring.HostTransport: destroy the VE process, remove the
// shm segment.
func (t *hostSide) Close() error {
	err := t.Destroy()
	if rerr := t.Card.Host.ShmRemove(t.seg.Key); err == nil {
		err = rerr
	}
	return err
}

// Abandon implements ring.HostTransport: a failed target leaves behind what
// Close removes, and the staging buffer its init kernel allocated in HBM
// (ring.VE.Init), which died with the process.
func (t *hostSide) Abandon() {
	_ = t.Close()
	_ = t.Card.Mem.Free(mem.Addr(t.Init))
}

// veSide is the active side of Fig. 8, built by ham_dmab_init — the §IV-A
// memory setup of Fig. 7. It polls receive flags in VH memory via LHM,
// fetches messages with user DMA, and pushes results back with SHM stores
// (or a DMA write).
type veSide struct {
	kctx         *veos.Ctx
	card         *veos.Card
	lay          layout // based at the DMAATB mapping of the VH shm segment
	resultViaDMA bool
	flags        []dma.Word // the receive flags, resolved for the LHM loads

	stage      mem.Addr // local HBM staging buffer (VEMVA)
	stageVEHVA mem.Addr // DMAATB mapping of the staging buffer
}

// hamDMABInit performs the VE side of Fig. 7: attach the VH shm segment by
// key, register it and a local staging buffer in the DMAATB, making both
// addressable for user DMA and LHM/SHM. It returns the staging buffer's
// address.
func hamDMABInit(ctx *veos.Ctx, args []uint64) (uint64, error) {
	if len(args) != 7 {
		return 0, fmt.Errorf("dmab: ham_dmab_init wants 7 args, got %d", len(args))
	}
	card := ctx.Context.Process().Card()
	o := ring.Options{NumBuffers: int(args[1]), BufSize: int(args[2]), ResultInline: int(args[3])}
	seg, err := card.Host.ShmGet(int(args[0]))
	if err != nil {
		return 0, err
	}
	shmVEHVA, err := card.Mem.ATB().Register(card.Host.Memory, seg.Addr, seg.Size)
	if err != nil {
		return 0, err
	}
	ctx.P.Sleep(card.Timing.DMAATBRegister)
	stage, err := card.Mem.Alloc(int64(o.BufSize))
	if err != nil {
		return 0, err
	}
	stageVEHVA, err := card.Mem.ATB().Register(card.Mem.Memory, stage, int64(o.BufSize))
	if err != nil {
		return 0, err
	}
	ctx.P.Sleep(card.Timing.DMAATBRegister)
	t := &veSide{
		kctx: ctx, card: card, lay: layout{Options: o, base: shmVEHVA},
		resultViaDMA: args[6] != 0, stage: stage, stageVEHVA: stageVEHVA,
		flags: make([]dma.Word, o.NumBuffers),
	}
	for i := range t.flags {
		t.flags[i] = ctx.Instr().Word(t.lay.recvFlag(i))
	}
	ring.Register(ctx, ring.TargetConfig{
		Name: "dmab", Options: o, Self: int(args[4]), Nodes: int(args[5]),
		Transport: t,
		// The VE pays an LHM word load per poll before it can execute — the
		// cost the paper notes — while the host finds results locally.
		IdlePollCost: card.Timing.LHMPerWord,
	})
	return uint64(stage), nil
}

// LoadFlag implements ring.TargetTransport with an LHM load from VH memory.
func (t *veSide) LoadFlag(slot int) (uint64, error) {
	return t.kctx.Instr().LoadWord(t.kctx.P, &t.flags[slot])
}

// QuietFlag implements ring.TargetTransport: the LHM load is quiet unless a
// fault rule can fire on it or a tracer records it (dma.Instr.Quiet).
func (t *veSide) QuietFlag(slot int, at simtime.Time) (simtime.Duration, bool, simtime.Time) {
	in := t.kctx.Instr()
	quiet, lapse := in.Quiet(&t.flags[slot], at)
	return in.LoadCost(), quiet, lapse
}

// PeekFlag implements ring.TargetTransport.
func (t *veSide) PeekFlag(slot int) (uint64, error) {
	return t.kctx.Instr().PeekWord(&t.flags[slot])
}

// CountFlags implements ring.TargetTransport.
func (t *veSide) CountFlags(n int64) { t.kctx.Instr().CountLoads(n) }

// WatchFlags implements ring.TargetTransport: the host's stores land the
// receive flags in VH memory.
func (t *veSide) WatchFlags(w *simtime.Watch) {
	for i := range t.flags {
		t.kctx.Instr().Watch(&t.flags[i], w)
	}
}

// Fetch implements ring.TargetTransport: user DMA into the local staging
// buffer (pre-built descriptor hot path, not the ve_dma_post_wait API).
func (t *veSide) Fetch(slot int, msg []byte) error {
	if err := t.kctx.UserDMA().Post(t.kctx.P, dma.Raw, pcie.Down,
		t.stageVEHVA, t.lay.recvBuf(slot), int64(len(msg))); err != nil {
		return err
	}
	if err := t.card.Mem.ReadAt(msg, t.stage); err != nil {
		return err
	}
	t.kctx.P.Sleep(t.card.Timing.HAMVEOverhead)
	return nil
}

// PushResult implements ring.TargetTransport: inline payload via SHM word
// stores (the §V-B finding: SHM beats DMA up to 256 B), overflow via a
// user-DMA write.
func (t *veSide) PushResult(slot int, inline, overflow []byte) error {
	if len(inline) > 0 {
		if t.resultViaDMA {
			// Ablation path: stage the inline part locally, DMA it out.
			if err := t.dmaOut(t.lay.sendInline(slot), inline); err != nil {
				return err
			}
		} else if err := t.kctx.Instr().StoreBytes(t.kctx.P, t.lay.sendInline(slot), inline); err != nil {
			return err
		}
	}
	if len(overflow) > 0 {
		return t.dmaOut(t.lay.overflow(slot), overflow)
	}
	return nil
}

// dmaOut writes data to VH memory at dst through the staging buffer.
func (t *veSide) dmaOut(dst mem.Addr, data []byte) error {
	if err := t.card.Mem.WriteAt(data, t.stage); err != nil {
		return err
	}
	return t.kctx.UserDMA().Post(t.kctx.P, dma.Raw, pcie.Up, dst, t.stageVEHVA, int64(len(data)))
}

// PublishResultFlag implements ring.TargetTransport with an SHM word store.
func (t *veSide) PublishResultFlag(slot int, word uint64) error {
	return t.kctx.Instr().StoreWord(t.kctx.P, t.lay.sendFlag(slot), word)
}
