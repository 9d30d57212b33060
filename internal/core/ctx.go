package core

import (
	"fmt"
	"math"

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

// localView returns the memory of elements [off, off+count) of a buffer on
// the executing node. b is decoded off the wire and may be forged or corrupt,
// so no step of the bounds check may wrap.
func localView[T Elem](c *Ctx, b BufferPtr[T], off, count int64, access string) ([]byte, error) {
	if b.Node != c.rt.ThisNode() {
		return nil, fmt.Errorf("core: buffer on node %d accessed from node %d", b.Node, c.rt.ThisNode())
	}
	size := sizeOf[T]()
	if off < 0 || count < 0 || count > b.Count || off > b.Count-count || b.Count > math.MaxInt64/size {
		return nil, fmt.Errorf("core: local %s [%d,+%d) outside buffer of %d elements", access, off, count, b.Count)
	}
	return c.rt.backend.Memory().View(mem.Addr(b.Addr)+mem.Addr(off*size), count*size)
}

// ReadLocal returns count elements of a local buffer from element offset off
// — how an offloaded function gets at the data behind a buffer_ptr argument,
// and as in the paper it dereferences in place: the result is the buffer's
// own memory, valid until Free, not a copy. A store through it is a store to
// the buffer, seen by later ReadLocals and Gets with no WriteLocal (a kernel
// that must keep its input copies it), and like a raw pointer nothing orders
// it against another goroutine's Put or Get on the wall-clock backends.
func ReadLocal[T Elem](c *Ctx, b BufferPtr[T], off, count int64) ([]T, error) {
	v, err := localView(c, b, off, count, "read")
	if err != nil {
		return nil, err
	}
	return bytesElems[T](v)
}

// WriteLocal stores vals into a local buffer at element offset off: one
// memmove, so vals may be a ReadLocal of the same buffer at another offset,
// and nothing at all when vals is already the memory it would be stored to.
func WriteLocal[T Elem](c *Ctx, b BufferPtr[T], off int64, vals []T) error {
	dst, err := localView(c, b, off, int64(len(vals)), "write")
	if err != nil {
		return err
	}
	if src := elemBytes(vals); len(src) > 0 && &src[0] != &dst[0] {
		copy(dst, src)
	}
	return nil
}
