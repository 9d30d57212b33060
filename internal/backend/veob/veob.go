// Package veob is the placement and the byte movers of the paper's VEO-based
// communication protocol (§III-D, Fig. 5); the slot-ring protocol itself
// lives in backend/ring. Message and result buffers live in VE memory; the
// host writes offload messages and notification flags with veo_write_mem and
// polls result flags with veo_read_mem, so every protocol step rides on
// VEOS' privileged DMA with its high per-operation latency. The VE side
// finds messages in its local memory, executes them, and leaves results in
// its local send buffers.
//
// One optimisation over the figure's literal four-transfer sequence is kept
// from the paper's "piggybacking" remark: each result flag is adjacent to
// its result buffer, so the host fetches flag and (small) result in a single
// veo_read_mem. Results larger than the slot's inline capacity cost one
// extra read.
package veob

import (
	"fmt"

	"hamoffload/internal/backend/ring"
	"hamoffload/internal/backend/slots"
	"hamoffload/internal/mem"
	"hamoffload/internal/simtime"
	"hamoffload/internal/veo"
	"hamoffload/internal/veos"
)

// LibraryName is the VE library containing the backend's C-API kernels and
// ham_main — the build product of Fig. 4's target-side compilation.
const LibraryName = "libham-offload-veob.so"

func init() {
	veos.RegisterLibrary(LibraryName, veos.Library{
		"ham_comm_init": hamCommInit,
		"ham_main":      ring.HamMain,
	})
}

// Options configures the protocol.
type Options = ring.Options

// Host is the initiator-side backend running on the Vector Host.
type Host = ring.Host

// layout describes the communication area in VE memory: one veo_alloc_mem
// block at base, the same addresses on both sides. Four arrays back to back
// — receive flags, receive buffers, send slots (flag adjacent to inline
// result), overflow buffers for large results — each starting where the one
// before would hold its NumBuffers-th element.
type layout struct {
	ring.Options
	base uint64
}

func (l layout) recvFlag(slot int) uint64 { return l.base + uint64(slot*slots.FlagBits) }
func (l layout) recvBuf(slot int) uint64 {
	return l.recvFlag(l.NumBuffers) + uint64(slot*l.BufSize)
}
func (l layout) sendSlot(slot int) uint64 {
	return l.recvBuf(l.NumBuffers) + uint64(slot*(slots.FlagBits+l.ResultInline))
}
func (l layout) sendExtra(slot int) uint64 {
	return l.sendSlot(l.NumBuffers) + uint64(slot*l.BufSize)
}
func (l layout) totalSize() int64 { return int64(l.sendExtra(l.NumBuffers) - l.base) }

// Connect builds the complete Fig. 4 runtime setup for the given VE cards:
// it creates a VE process on each card, loads the application library,
// communicates the communication-area addresses through the HAM-Offload
// C-API kernels, and starts ham_main. The returned backend serves node 0;
// cards become nodes 1..len(cards).
func Connect(p *simtime.Proc, cards []*veos.Card, opts Options) (*Host, error) {
	return ring.ConnectCards(p, ring.HostConfig{Name: "veob", Options: opts}, cards, dial)
}

// hostSide is the host half of Fig. 5: every protocol step is a privileged
// DMA transfer between a host bounce buffer and the VE communication area.
type hostSide struct {
	ring.VE
	lay    layout
	bounce mem.Addr // persistent host-side bounce buffer
}

func dial(p *simtime.Proc, card *veos.Card, o ring.Options, self, total int) (ring.HostTransport, ring.HostFacts, error) {
	t := &hostSide{lay: layout{Options: o}}
	// Allocate the communication area in VE memory (the host manages it),
	// then communicate its address through the C-API kernel (Fig. 4's
	// "HAM-Offload C-API").
	ve, err := ring.Launch(p, card, LibraryName, "ham_comm_init", func(proc *veo.Proc) ([]uint64, error) {
		base, err := proc.AllocMem(p, t.lay.totalSize())
		if err != nil {
			return nil, err
		}
		t.lay.base = base
		return []uint64{base, uint64(o.NumBuffers), uint64(o.BufSize), uint64(o.ResultInline),
			uint64(self), uint64(total)}, nil
	})
	if err != nil {
		return nil, ring.HostFacts{}, err
	}
	t.VE = ve
	if t.bounce, err = card.Host.Alloc(int64(o.BufSize) + 16); err != nil {
		_ = ve.Destroy()
		return nil, ring.HostFacts{}, err
	}
	// Each poll is a full veo_read_mem: the privileged-DMA latency is the
	// poll interval, no gap is added. An injected glitch on that read costs
	// one poll and leaves the offload unharmed.
	return t, ring.HostFacts{AbsorbPollFaults: true}, nil
}

// WriteMessage implements ring.HostTransport: stage the message in host
// memory and write it into the VE buffer (the first veo_write_mem of Fig. 5).
func (t *hostSide) WriteMessage(slot int, msg []byte) error {
	if err := t.Card.Host.WriteAt(msg, t.bounce); err != nil {
		return err
	}
	return t.Proc.WriteMem(t.P, t.lay.recvBuf(slot), uint64(t.bounce), int64(len(msg)))
}

// PublishFlag implements ring.HostTransport (the second veo_write_mem).
func (t *hostSide) PublishFlag(slot int, word uint64) error {
	if err := t.Card.Host.WriteUint64(t.bounce, word); err != nil {
		return err
	}
	return t.Proc.WriteMem(t.P, t.lay.recvFlag(slot), uint64(t.bounce), slots.FlagBits)
}

// PollResult implements ring.HostTransport: one read brings the flag and
// the inline result into the bounce buffer.
func (t *hostSide) PollResult(slot int) (uint64, error) {
	n := int64(slots.FlagBits + t.lay.ResultInline)
	if err := t.Proc.ReadMem(t.P, uint64(t.bounce), t.lay.sendSlot(slot), n); err != nil {
		return 0, err
	}
	return t.Card.Host.ReadUint64(t.bounce)
}

// ReadResult implements ring.HostTransport: the inline part is already in
// the bounce buffer; a large result costs a second read for the overflow.
func (t *hostSide) ReadResult(slot int, inline, overflow []byte) error {
	if err := t.Card.Host.ReadAt(inline, t.bounce+slots.FlagBits); err != nil {
		return err
	}
	if len(overflow) > 0 {
		if err := t.Proc.ReadMem(t.P, uint64(t.bounce), t.lay.sendExtra(slot), int64(len(overflow))); err != nil {
			return err
		}
		return t.Card.Host.ReadAt(overflow, t.bounce)
	}
	return nil
}

// Alive implements ring.HostTransport: every poll is a VEOS call, which
// fails by itself on a crashed card.
func (t *hostSide) Alive() bool { return true }

// Watch implements ring.HostTransport: every poll is a veo_read_mem that
// takes its time (PollGap 0), so no poll parks to watch anything.
func (t *hostSide) Watch(*simtime.Watch) {}

// Close implements ring.HostTransport: release the bounce buffer and destroy
// the VE process.
func (t *hostSide) Close() error {
	err := t.Card.Host.Free(t.bounce)
	if derr := t.Destroy(); err == nil {
		err = derr
	}
	return err
}

// Abandon implements ring.HostTransport. The VE-side allocations died with
// the process; release their simulated backing store as well.
func (t *hostSide) Abandon() {
	_ = t.Close()
	_ = t.Card.Mem.Free(mem.Addr(t.lay.base))
}

// veSide is the VE half of Fig. 5: flags, messages and results all sit in
// local HBM, where the host's privileged DMA put them or will fetch them.
type veSide struct {
	p     *simtime.Proc
	card  *veos.Card
	lay   layout
	flags []mem.Word // the receive flags, resolved for LoadFlag
}

// hamCommInit receives the addresses of the host-managed communication data
// structures (Fig. 4's HAM-Offload C-API).
func hamCommInit(ctx *veos.Ctx, args []uint64) (uint64, error) {
	if len(args) != 6 {
		return 0, fmt.Errorf("veob: ham_comm_init wants 6 args, got %d", len(args))
	}
	o := ring.Options{NumBuffers: int(args[1]), BufSize: int(args[2]), ResultInline: int(args[3])}
	t := &veSide{p: ctx.Proc, card: ctx.Context.Process().Card(), lay: layout{Options: o, base: args[0]},
		flags: make([]mem.Word, o.NumBuffers)}
	for i := range t.flags {
		t.flags[i] = t.card.Mem.WordAt(mem.Addr(t.lay.recvFlag(i)))
	}
	ring.Register(ctx, ring.TargetConfig{
		Name: "veob", Options: o, Self: int(args[4]), Nodes: int(args[5]), Transport: t,
	})
	return 0, nil
}

// LoadFlag implements ring.TargetTransport with a local memory load.
func (t *veSide) LoadFlag(slot int) (uint64, error) {
	return t.flags[slot].Load()
}

// QuietFlag implements ring.TargetTransport: a local load is free and passes
// no fault site.
func (t *veSide) QuietFlag(int, simtime.Time) (simtime.Duration, bool, simtime.Lapse) {
	return 0, true, simtime.Lapse{}
}

// PeekFlag implements ring.TargetTransport: the load itself.
func (t *veSide) PeekFlag(slot int) (uint64, error) { return t.LoadFlag(slot) }

// CountFlags implements ring.TargetTransport: local loads are not counted.
func (t *veSide) CountFlags(int64, simtime.Time) {}

// WatchFlags implements ring.TargetTransport: the host's privileged DMA lands
// the receive flags in HBM.
func (t *veSide) WatchFlags(w *simtime.Watch) {
	for i := range t.flags {
		t.flags[i].Watch(w)
	}
}

// Fetch implements ring.TargetTransport: the message is read in the receive
// buffer, charged as the local copy out of it that the VE makes.
func (t *veSide) Fetch(slot, n int) ([]byte, error) {
	msg, err := t.card.Mem.View(mem.Addr(t.lay.recvBuf(slot)), int64(n))
	if err != nil {
		return nil, err
	}
	t.p.Charge(simtime.BytesOver(int64(n), t.card.Timing.VEMemCopyRate) + t.card.Timing.HAMVEOverhead)
	return msg, nil
}

// PushResult implements ring.TargetTransport with local copies.
func (t *veSide) PushResult(slot int, inline, overflow []byte) error {
	if err := t.card.Mem.WriteAt(inline, mem.Addr(t.lay.sendSlot(slot)+slots.FlagBits)); err != nil {
		return err
	}
	if len(overflow) > 0 {
		if err := t.card.Mem.WriteAt(overflow, mem.Addr(t.lay.sendExtra(slot))); err != nil {
			return err
		}
	}
	t.p.Charge(simtime.BytesOver(int64(len(inline)+len(overflow)), t.card.Timing.VEMemCopyRate))
	return nil
}

// PublishResultFlag implements ring.TargetTransport with a local store, paid first.
func (t *veSide) PublishResultFlag(slot int, word uint64) error {
	t.p.Pay()
	return t.card.Mem.WriteUint64(mem.Addr(t.lay.sendSlot(slot)), word)
}
