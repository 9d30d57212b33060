package veos

import (
	"fmt"

	"hamoffload/internal/dma"
	"hamoffload/internal/simtime"
	"hamoffload/internal/vecore"
	"hamoffload/internal/vemem"
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

	// The charge window (Ctx.OpenWindow): while it is open on a card with
	// one live context, kernel charges add to debt instead of sleeping.
	window, charged bool
	debt            simtime.Duration

	executed int64
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
func (*waitPoll) Tick(simtime.Time) (simtime.Duration, bool, simtime.Time) { return 0, false, 0 }

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

// Done reports whether the command has finished.
func (c *Command) Done() bool { return c.done.Fired() }

// Result returns the kernel's return word and error; valid once Done.
func (c *Command) Result() (uint64, error) { return c.result, c.err }

// OpenContext spawns a new execution context on the VE process. The calling
// VH process pays an IPC round trip for the thread creation.
func (vp *Process) OpenContext(p *simtime.Proc) *Context {
	t := vp.card.Timing
	p.Sleep(2 * t.IPCUserVEOS)
	ctx := &Context{
		id:    len(vp.ctxs),
		proc:  vp,
		cmdQ:  simtime.NewQueue[*Command](vp.card.Eng, fmt.Sprintf("ve%d-ctx%d", vp.card.ID, len(vp.ctxs))),
		udma:  dma.NewUserDMA(vp.card.Eng, fmt.Sprintf("ve%d-ctx%d", vp.card.ID, len(vp.ctxs)), t, vp.card.Mem.ATB(), vp.card.Path),
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

// Executed returns how many commands this context has completed.
func (ctx *Context) Executed() int64 { return ctx.executed }

// Process returns the VE process the context belongs to.
func (ctx *Context) Process() *Process { return ctx.proc }

// workerLoop runs the queued commands, polling the command queue at the VEO
// command poll interval (ctx.idle) while it is empty.
func (ctx *Context) workerLoop(p *simtime.Proc) {
	t := ctx.proc.card.Timing
	for !ctx.stop && !ctx.proc.card.crashed {
		cmd, ok := ctx.cmdQ.TryPop()
		if !ok {
			p.Poll(&ctx.idle, &ctx.idle.Watch, 0)
			continue
		}
		ctx.idle.Reset()
		end := t.Tracer.Span(p, "veo", "ve-kernel")
		p.Sleep(t.VEOCallDispatchVE)
		kctx := &Ctx{P: p, Context: ctx}
		cmd.result, cmd.err = cmd.Kernel(kctx, cmd.Args)
		end()
		ctx.executed++
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
	ctx.cmdQ.Push(cmd)
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
// roofline cost model.
type Ctx struct {
	P       *simtime.Proc
	Context *Context
}

// VE returns the local VE memory system.
func (c *Ctx) VE() *vemem.VE { return c.Context.proc.card.Mem }

// UserDMA returns this context's user DMA engine.
func (c *Ctx) UserDMA() *dma.UserDMA { return c.udma() }

func (c *Ctx) udma() *dma.UserDMA { return c.Context.udma }

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

// ChargeScalar advances simulated time by ops scalar instructions on one
// core.
func (c *Ctx) ChargeScalar(ops int64) { c.charge(1, c.Model().ScalarTime(ops)) }

// charge holds n of the card's cores for d. Inside a charge window on a card
// with one live context no other process can want the cores, so d joins the
// window's debt instead.
func (c *Ctx) charge(n int, d simtime.Duration) {
	x := c.Context
	if x.window && x.proc.card.live == 1 {
		x.debt += d
		x.charged = true
		return
	}
	c.pay()
	pool := x.proc.card.Cores
	got := pool.Acquire(c.P, n)
	c.P.Sleep(d)
	pool.Release(got)
}

// OpenWindow opens the charge window: until CloseWindow, the kernel charges
// of a card with one live context are a debt that Now includes, paid with
// one sleep. A served message's kernels run inside one (ring.Target.Serve),
// touching nothing another process sees at a simulated instant.
func (c *Ctx) OpenWindow() { c.Context.window = true }

// CloseWindow closes the charge window and pays its debt: one sleep, taken
// even for a zero debt if anything was charged.
func (c *Ctx) CloseWindow() {
	c.Context.window = false
	c.pay()
}

// pay sleeps for the debt of the charges deferred so far, if there were any.
func (c *Ctx) pay() {
	x := c.Context
	if x.charged {
		d := x.debt
		x.debt, x.charged = 0, false
		c.P.Sleep(d)
	}
}

// Now, Sleep and Simulated complete core.Clock: a kernel context is the
// clock of the VE-side runtime it serves. Now includes the open window's
// debt; Sleep pays it first.
func (c *Ctx) Now() simtime.Time { return c.P.Now().Add(c.Context.debt) }
func (c *Ctx) Sleep(d simtime.Duration) {
	c.pay()
	c.P.Sleep(d)
}
func (c *Ctx) Simulated() bool { return true }

// Name returns the name of the process the kernel runs on, the thread its
// trace spans carry.
func (c *Ctx) Name() string { return c.P.Name() }
