package veos

import (
	"fmt"
	"math"

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

	executed int64
}

// Command is one queued kernel invocation with its completion state.
type Command struct {
	Kernel Kernel
	Args   []uint64

	done    *simtime.Event
	pollGap simtime.Duration // between Wait's looks at done
	result  uint64
	err     error
}

// waitPoll is a Command as Context.Wait polls it, in the form
// simtime.Proc.Poll takes: every VEOResultPollInterval, has it finished?
type waitPoll Command

// Tick implements simtime.Poller: looking at done is free, and all the wait
// does.
//
//hot:path
func (*waitPoll) Tick() (simtime.Duration, bool) { return 0, false }

// Hit implements simtime.Poller.
//
//hot:path
func (w *waitPoll) Hit() bool { return w.done.Fired() }

// Gap implements simtime.Poller.
//
//hot:path
func (w *waitPoll) Gap() simtime.Duration { return w.pollGap }

// Misses implements simtime.Poller: the gap is constant.
//
//hot:path
func (w *waitPoll) Misses(int64) (simtime.Duration, int64) { return w.pollGap, math.MaxInt64 }

// cmdPoll is workerLoop's idle loop in the same form: every back-off gap, is
// there a command to run or a reason to stop?
type cmdPoll struct {
	simtime.Free    // Tick
	simtime.Backoff // Gap
	ctx             *Context
}

// Hit implements simtime.Poller.
//
//hot:path
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
	ctx.idle = cmdPoll{ctx: ctx, Backoff: simtime.Backoff{
		Base: t.VEOCmdPollInterval, After: 500 * simtime.Microsecond, Max: 128 * t.VEOCmdPollInterval,
	}}
	vp.ctxs = append(vp.ctxs, ctx)
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
			p.Poll(&ctx.idle, 0)
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
	cmd := &Command{
		Kernel:  k,
		Args:    args,
		done:    simtime.NewEvent(card.Eng),
		pollGap: t.VEOResultPollInterval,
	}
	ctx.cmdQ.Push(cmd)
	return cmd
}

// Wait blocks the VH process until the command completes, polling at the
// result poll interval, then pays the result return path.
func (ctx *Context) Wait(p *simtime.Proc, cmd *Command) (uint64, error) {
	t := ctx.proc.card.Timing
	p.Poll((*waitPoll)(cmd), 0)
	p.Sleep(t.IPCUserVEOS + t.VEOLibOverhead)
	return cmd.result, cmd.err
}

// Ctx is the environment passed to a running kernel: the simulated process
// it runs on and the VE facilities it may use. It is the simulation analog
// of "code compiled for the VE": user DMA, LHM/SHM, local memory, the
// roofline cost model, and reverse-offloaded syscalls.
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
	pool := c.Context.proc.card.Cores
	got := pool.Acquire(c.P, cores)
	c.P.Sleep(c.Model().VectorTime(flops, bytes, got))
	pool.Release(got)
}

// ChargeScalar advances simulated time by ops scalar instructions on one
// core.
func (c *Ctx) ChargeScalar(ops int64) {
	pool := c.Context.proc.card.Cores
	got := pool.Acquire(c.P, 1)
	c.P.Sleep(c.Model().ScalarTime(ops))
	pool.Release(got)
}

// Now, Sleep and Simulated complete core.Clock: a kernel context is the
// clock of the VE-side runtime it serves.
func (c *Ctx) Now() simtime.Time        { return c.P.Now() }
func (c *Ctx) Sleep(d simtime.Duration) { c.P.Sleep(d) }
func (c *Ctx) Simulated() bool          { return true }

// Syscall performs a reverse-offloaded system call serviced by the VH
// pseudo-process, with body being the VH-side service time.
func (c *Ctx) Syscall(body simtime.Duration) {
	c.P.Sleep(c.Context.proc.card.Timing.SyscallRoundTrip + body)
	c.Context.proc.syscalls++
}

// VHCall synchronously invokes a registered VH-side handler from VE code —
// the platform's VHcall mechanism. The cost is a syscall-style round trip;
// the handler runs in the VH pseudo-process's context.
func (c *Ctx) VHCall(name string, args ...uint64) (uint64, error) {
	card := c.Context.proc.card
	h, ok := card.vhcalls[name]
	if !ok {
		return 0, fmt.Errorf("veos: VHcall %q not registered on VE %d", name, card.ID)
	}
	c.P.Sleep(card.Timing.SyscallRoundTrip)
	c.Context.proc.syscalls++
	return h(c.P, args)
}
