package veos

import (
	"fmt"

	"hamoffload/internal/dma"
	"hamoffload/internal/simtime"
	"hamoffload/internal/vecore"
)

// Context is one VE-side execution thread (the analog of veo_thr_ctxt): a
// simulated process that polls a command queue and runs kernels to
// completion, one at a time. Multiple contexts on one process model VEO's
// multi-context API; the HAM-Offload backend runs its message loop in one
// while leaving others free.
type Context struct {
	id   int
	proc *Process
	cmdQ *simtime.Queue[*Command]
	stop bool
	idle cmdPoll // workerLoop's wait for the next command

	udma  *dma.UserDMA
	instr *dma.Instr
}

// Command is one queued kernel invocation with its completion state.
type Command struct {
	Kernel Kernel
	Args   []uint64

	done   *simtime.Event
	result uint64
	err    error
	// wait is where Wait parks on the VH side: a VEOResultPollInterval grid,
	// notified by done's Fire.
	wait simtime.Watch
}

// waitPoll is a Command as Context.Wait polls it, in the form
// simtime.Proc.Poll takes: every VEOResultPollInterval, has it finished?
type waitPoll Command

// Tick implements simtime.Poller: looking at done is free, and all the wait
// does.
func (*waitPoll) Tick(simtime.Time) (simtime.Duration, bool, simtime.Lapse) {
	return 0, false, simtime.Lapse{}
}

// Hit implements simtime.Poller.
func (w *waitPoll) Hit() bool { return w.done.Fired() }

// Missed implements simtime.Poller.
func (*waitPoll) Missed(int64) {}

// cmdPoll is workerLoop's idle loop in the same form: every back-off gap, is
// there a command to run or a reason to stop? The command queue's Push and
// the card's crash and stop notify its Watch.
type cmdPoll struct {
	simtime.Free  // Tick, Missed
	simtime.Watch // the back-off grid
	ctx           *Context
}

// Hit implements simtime.Poller.
func (q *cmdPoll) Hit() bool {
	ctx := q.ctx
	return ctx.stop || ctx.proc.card.crashed || ctx.cmdQ.Len() > 0
}

// OpenContext spawns a new execution context on the VE process. The calling
// VH process pays an IPC round trip for the thread creation.
func (vp *Process) OpenContext(p *simtime.Proc) *Context {
	t := vp.card.Timing
	p.Sleep(2 * t.IPCUserVEOS)
	ctx := &Context{
		id:    len(vp.ctxs),
		proc:  vp,
		cmdQ:  new(simtime.Queue[*Command]),
		udma:  dma.NewUserDMA(t, vp.card.Mem.ATB(), vp.card.Path),
		instr: dma.NewInstr(t, vp.card.Mem.ATB(), vp.card.Path),
	}
	// So a quiet VE does not flood the event queue, the command poll interval
	// backs off exponentially — but only after a sustained idle period, so the
	// hot path of back-to-back offload benchmarks always sees the base
	// interval.
	ctx.idle = cmdPoll{ctx: ctx, Watch: simtime.Watch{Backoff: simtime.Backoff{
		Base: t.VEOCmdPollInterval, After: 500 * simtime.Microsecond, Max: 128 * t.VEOCmdPollInterval,
	}}}
	ctx.cmdQ.Notifies(&ctx.idle.Watch)
	vp.card.Notifies(&ctx.idle.Watch)
	vp.ctxs = append(vp.ctxs, ctx)
	vp.card.live++
	vp.card.Eng.Spawn(fmt.Sprintf("ve%d-worker%d", vp.card.ID, ctx.id), ctx.workerLoop)
	return ctx
}

// Process returns the VE process the context belongs to.
func (ctx *Context) Process() *Process { return ctx.proc }

// workerLoop runs the queued commands, polling the command queue at the VEO
// command poll interval (ctx.idle) while it is empty.
func (ctx *Context) workerLoop(p *simtime.Proc) {
	t := ctx.proc.card.Timing
	kctx := &Ctx{Proc: p, Context: ctx} // the same for every command this worker runs
	for !ctx.stop && !ctx.proc.card.crashed {
		cmd, ok := ctx.cmdQ.TryPop()
		if !ok {
			p.Poll(&ctx.idle, &ctx.idle.Watch, 0)
			continue
		}
		ctx.idle.Reset()
		end := t.Tracer.Span(p, "veo", "ve-kernel")
		p.Charge(t.VEOCallDispatchVE)
		cmd.result, cmd.err = cmd.Kernel(kctx, cmd.Args)
		end()
		cmd.done.Fire()
	}
	ctx.proc.card.live--
}

// Submit enqueues a kernel invocation from the VH side (veo_call_async).
// The caller pays the VH-side submission chain; the command then travels the
// PCIe doorbell path and becomes visible to the worker.
func (ctx *Context) Submit(p *simtime.Proc, k Kernel, args []uint64) *Command {
	card := ctx.proc.card
	t := card.Timing
	if err := card.enterVEOS(p); err != nil {
		// The doorbell has nowhere to ring: hand back an already-failed
		// command so VEO's request/wait surface stays uniform.
		cmd := &Command{done: simtime.NewEvent(card.Eng), err: err}
		cmd.done.Fire()
		return cmd
	}
	defer t.Tracer.Span(p, "veo", "veo_call_async")()
	p.Sleep(t.VEOLibOverhead + t.VEOCallSubmit + t.IPCUserVEOS + t.DriverHop +
		card.Path.OneWayLatency())
	cmd := &Command{Kernel: k, Args: args, done: simtime.NewEvent(card.Eng)}
	cmd.wait.Backoff = simtime.Backoff{Base: t.VEOResultPollInterval, Max: t.VEOResultPollInterval}
	cmd.done.Notifies(&cmd.wait)
	ctx.cmdQ.Push(p, cmd)
	return cmd
}

// Wait blocks the VH process until the command completes, polling at the
// result poll interval, then pays the result return path.
func (ctx *Context) Wait(p *simtime.Proc, cmd *Command) (uint64, error) {
	t := ctx.proc.card.Timing
	p.Poll((*waitPoll)(cmd), &cmd.wait, 0)
	p.Sleep(t.IPCUserVEOS + t.VEOLibOverhead)
	return cmd.result, cmd.err
}

// Ctx is the environment passed to a running kernel: the simulated process
// it runs on and the VE facilities it may use. It is the simulation analog
// of "code compiled for the VE": user DMA, LHM/SHM, local memory and the
// roofline cost model, and the core.Clock of the VE-side runtime it serves.
type Ctx struct {
	*simtime.Proc
	Context *Context
}

// UserDMA returns this context's user DMA engine.
func (c *Ctx) UserDMA() *dma.UserDMA { return c.Context.udma }

// Instr returns this context's LHM/SHM instruction unit.
func (c *Ctx) Instr() *dma.Instr { return c.Context.instr }

// Model returns the VE execution cost model.
func (c *Ctx) Model() vecore.Model { return c.Context.proc.model }

// ChargeVector advances simulated time by the roofline cost of a vectorised
// kernel region (flops floating-point ops, bytes of HBM traffic, cores VE
// cores). The cores are held for the region's duration, so concurrent
// kernels on one VE contend for them like real threads would.
func (c *Ctx) ChargeVector(flops, bytes int64, cores int) {
	n := min(max(cores, 1), c.Context.proc.card.Cores.Total())
	c.charge(n, c.Model().VectorTime(flops, bytes, n))
}

// charge holds n of the card's cores for d. While the card has one live
// context no other process can want the cores, so d is private time: a
// debt of the worker's (simtime.Proc.Charge).
func (c *Ctx) charge(n int, d simtime.Duration) {
	if c.Context.proc.card.live == 1 {
		c.Charge(d)
	} else {
		c.Context.proc.card.Cores.Use(c.Proc, n, d)
	}
}

// Simulated completes core.Clock.
func (c *Ctx) Simulated() bool { return true }
