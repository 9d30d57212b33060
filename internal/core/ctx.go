package core

import (
	"fmt"

	"hamoffload/internal/mem"
)

// Ctx is the execution context passed to offloaded functions while they run
// on a target node: access to the local memory behind buffer pointers, the
// node identity, and the compute-time model of the executing device.
type Ctx struct {
	rt *Runtime
}

// ctxOf returns the runtime's embedded context: handlers run strictly
// sequentially on their runtime, so one cached Ctx serves every dispatch
// without a per-call allocation.
func ctxOf(env any) *Ctx { return &env.(*Runtime).ctx }

// Runtime returns the target-side runtime.
func (c *Ctx) Runtime() *Runtime { return c.rt }

// Node returns the executing node's id.
func (c *Ctx) Node() NodeID { return c.rt.ThisNode() }

// ChargeVector accounts roofline time for a vectorised kernel region on the
// executing device (no-op on wall-clock nodes).
func (c *Ctx) ChargeVector(flops, bytes int64, cores int) {
	c.rt.clock.ChargeVector(flops, bytes, cores)
}

// ChargeScalar accounts scalar-pipeline time (no-op on wall-clock nodes).
func (c *Ctx) ChargeScalar(ops int64) {
	c.rt.clock.ChargeScalar(ops)
}

// checkLocal verifies that the buffer lives on the executing node.
func (c *Ctx) checkLocal(node NodeID) error {
	if node != c.rt.ThisNode() {
		return fmt.Errorf("core: buffer on node %d accessed from node %d", node, c.rt.ThisNode())
	}
	return nil
}

// ReadLocal loads count elements starting at element offset off from a
// local buffer — how an offloaded function gets at the data behind a
// buffer_ptr argument. The result is a copy: changing it changes the buffer
// only through WriteLocal.
func ReadLocal[T Elem](c *Ctx, b BufferPtr[T], off, count int64) ([]T, error) {
	if err := c.checkLocal(b.Node); err != nil {
		return nil, err
	}
	if off < 0 || count < 0 || off+count > b.Count {
		return nil, fmt.Errorf("core: local read [%d,+%d) outside buffer of %d elements", off, count, b.Count)
	}
	out := make([]T, count)
	if err := c.rt.backend.Memory().ReadAt(elemBytes(out), mem.Addr(b.Addr)+mem.Addr(off*sizeOf[T]())); err != nil {
		return nil, err
	}
	swapElems(elemBytes(out), sizeOf[T]())
	return out, nil
}

// WriteLocal stores vals into a local buffer at element offset off.
func WriteLocal[T Elem](c *Ctx, b BufferPtr[T], off int64, vals []T) error {
	if err := c.checkLocal(b.Node); err != nil {
		return err
	}
	if off < 0 || off+int64(len(vals)) > b.Count {
		return fmt.Errorf("core: local write [%d,+%d) outside buffer of %d elements", off, len(vals), b.Count)
	}
	return c.rt.backend.Memory().WriteAt(wireBytes(vals), mem.Addr(b.Addr)+mem.Addr(off*sizeOf[T]()))
}
