// Package borrowkernel exercises borrowck's kernel rule: a function passed
// as impl to core.NewFunc1..4 or offload.NewFunc1..4 borrows its []byte
// parameters until it returns, with no annotation, wherever it is
// registered. The test runs this package under the repository's scoping
// policy, which leaves it outside the borrowck scope: only the kernel rule
// reports here.
package borrowkernel

import (
	"bytes"

	"hamoffload/internal/core"
	"hamoffload/offload"
)

type sink struct{ buf []byte }

var (
	global []byte
	held   sink
	table  = map[int][]byte{}
	ch     = make(chan []byte, 1)
	keep   func() int
)

func consume([]byte) {}

func stash(b []byte) { global = b }

// --- reported ---

var (
	toGlobal = offload.NewFunc1[int64]("k.global",
		func(_ *offload.Ctx, pay []byte) (int64, error) {
			global = pay // want `borrowed kernel argument "pay" stored into package-level variable global \(chain: kernel k\.global\)`
			return 0, nil
		})
	toField = offload.NewFunc2[int64]("k.field",
		func(_ *offload.Ctx, n int64, pay []byte) (int64, error) {
			held.buf = pay[:n] // want `borrowed kernel argument "pay" stored into struct field held\.buf`
			return n, nil
		})
	toMap = offload.NewFunc1[int64]("k.map",
		func(_ *offload.Ctx, pay []byte) (int64, error) {
			table[len(pay)] = pay // want `borrowed kernel argument "pay" stored into a map`
			return 0, nil
		})
	toChannel = offload.NewFunc3[int64]("k.channel",
		func(_ *offload.Ctx, a int64, b float64, pay []byte) (int64, error) {
			ch <- pay // want `borrowed kernel argument "pay" sent on a channel`
			return a + int64(b), nil
		})
	toClosure = offload.NewFunc4[int64]("k.closure",
		func(_ *offload.Ctx, a, b, c int64, pay []byte) (int64, error) {
			keep = func() int { return len(pay) } // want `borrowed kernel argument "pay" stored into package-level variable keep`
			return a + b + c, nil
		})
	toGoroutine = core.NewFunc1[int64]("k.goroutine",
		func(_ *core.Ctx, pay []byte) (int64, error) {
			go consume(pay) // want `borrowed kernel argument "pay" passed to a goroutine`
			return 0, nil
		})
	throughHelper = core.NewFunc2[int64]("k.helper",
		func(_ *core.Ctx, a int64, pay []byte) (int64, error) {
			stash(pay) // want `borrowed kernel argument "pay" stored into package-level variable global at .*borrowkernel\.go:\d+:\d+ \(chain: kernel k\.helper → borrowkernel\.stash\)`
			return a, nil
		})
	named = offload.NewFunc1[int64]("k.named", namedKernel)
)

// namedKernel is a kernel because it is registered as one, above.
func namedKernel(_ *offload.Ctx, pay []byte) (int64, error) {
	held = sink{buf: pay} // want `borrowed kernel argument "pay" stored into package-level variable held \(chain: borrowkernel\.namedKernel\)`
	return 0, nil
}

// registerLate registers a kernel inside a function: where it is
// registered does not matter.
func registerLate() offload.Func1[int64, []byte] {
	return offload.NewFunc1[int64]("k.late",
		func(_ *offload.Ctx, pay []byte) (int64, error) {
			go func() { consume(pay) }() // want `borrowed kernel argument "pay" captured by a goroutine closure`
			return 0, nil
		})
}

// --- allowed ---

var (
	echo = offload.NewFunc1[[]byte]("k.echo",
		func(_ *offload.Ctx, pay []byte) ([]byte, error) { return pay, nil })
	echoTail = offload.NewFunc2[[]byte]("k.echoTail",
		func(_ *offload.Ctx, n int64, pay []byte) ([]byte, error) { return pay[n:], nil })
	forward = offload.NewFunc1[[]byte]("k.forward",
		func(c *offload.Ctx, pay []byte) ([]byte, error) {
			return offload.Sync(c.Runtime(), 1, echo.Bind(pay))
		})
	cloned = offload.NewFunc1[int64]("k.cloned",
		func(_ *offload.Ctx, pay []byte) (int64, error) {
			global = bytes.Clone(pay)
			return 0, nil
		})
	copied = offload.NewFunc1[int64]("k.copied",
		func(_ *offload.Ctx, pay []byte) (int64, error) {
			held.buf = append(held.buf[:0], pay...)
			n := copy(global, pay)
			return int64(n), nil
		})
	grown = offload.NewFunc1[int64]("k.grown",
		func(_ *offload.Ctx, pay []byte) (int64, error) {
			pay = append(pay, 0xFF)
			consume(pay)
			return int64(len(pay)), nil
		})
	// Arguments of other types are copies the kernel owns.
	owned = offload.NewFunc2[int64]("k.owned",
		func(_ *offload.Ctx, s string, v []float64) (int64, error) {
			global, keepF = []byte(s), v
			return 0, nil
		})
	noBytes = offload.NewFunc1[int64]("k.noBytes", ownsArgs)
)

var keepF []float64

func ownsArgs(_ *offload.Ctx, v []int64) (int64, error) {
	table[0] = nil
	_ = v
	return 0, nil
}

// An ordinary function outside the borrowck scope keeps to its annotation
// unchecked: only kernels report in this package.
//
//ham:borrowed msg
func outOfScope(msg []byte) { global = msg }
