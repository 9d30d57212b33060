// CG: a conjugate-gradient solver whose kernels all run on a Vector Engine —
// the workload class of the paper's related work (Hahnfeld et al.'s CG on
// accelerator nodes, and the FETI solvers of Malý et al.). The solver state
// (x, r, p, Ap) lives in VE memory for the whole solve; every iteration
// issues six fine-grained offloads (a matrix-free Laplacian apply, two dot
// products, two AXPYs, an XPAY) and only scalars cross PCIe. At this
// granularity the messaging protocol dominates: the program reports the
// solve time under both protocols and verifies the solution against a
// host-side solve.
//
// Run with: go run ./examples/cg
package main

import (
	"fmt"
	"log"
	"math"

	"hamoffload/machine"
	"hamoffload/offload"
)

const (
	gridN   = 64 // unknowns per grid edge; n = gridN² unknowns
	maxIter = 300
	tol     = 1e-7 // on the residual norm; the loop tests ||r||^2 > tol^2
)

// applyLaplacian computes out = A·in for the 2D 5-point Laplacian
// (matrix-free SpMV), the paper-cited CG hot loop.
var applyLaplacian = offload.NewFunc3[offload.Unit]("cg.apply_laplacian",
	func(c *offload.Ctx, in, out offload.BufferPtr[float64], n int64) (offload.Unit, error) {
		v, err := offload.ReadLocal(c, in, 0, n*n)
		if err != nil {
			return offload.Unit{}, err
		}
		res := make([]float64, n*n)
		for i := int64(0); i < n; i++ {
			for j := int64(0); j < n; j++ {
				s := 4 * v[i*n+j]
				if i > 0 {
					s -= v[(i-1)*n+j]
				}
				if i < n-1 {
					s -= v[(i+1)*n+j]
				}
				if j > 0 {
					s -= v[i*n+j-1]
				}
				if j < n-1 {
					s -= v[i*n+j+1]
				}
				res[i*n+j] = s
			}
		}
		c.ChargeVector(6*n*n, 6*8*n*n, 8)
		return offload.Unit{}, offload.WriteLocal(c, out, 0, res)
	})

// dot computes the inner product of two VE-resident vectors.
var dot = offload.NewFunc2[float64]("cg.dot",
	func(c *offload.Ctx, a, b offload.BufferPtr[float64]) (float64, error) {
		av, err := offload.ReadLocal(c, a, 0, a.Count)
		if err != nil {
			return 0, err
		}
		bv, err := offload.ReadLocal(c, b, 0, b.Count)
		if err != nil {
			return 0, err
		}
		c.ChargeVector(2*a.Count, 16*a.Count, 8)
		s := 0.0
		for i := range av {
			s += av[i] * bv[i]
		}
		return s, nil
	})

// axpy computes y ← y + alpha·x on the VE.
var axpy = offload.NewFunc3[offload.Unit]("cg.axpy",
	func(c *offload.Ctx, y, x offload.BufferPtr[float64], alpha float64) (offload.Unit, error) {
		yv, err := offload.ReadLocal(c, y, 0, y.Count)
		if err != nil {
			return offload.Unit{}, err
		}
		xv, err := offload.ReadLocal(c, x, 0, x.Count)
		if err != nil {
			return offload.Unit{}, err
		}
		for i := range yv {
			yv[i] += alpha * xv[i]
		}
		c.ChargeVector(2*y.Count, 24*y.Count, 8)
		return offload.Unit{}, offload.WriteLocal(c, y, 0, yv)
	})

// xpay computes p ← r + beta·p on the VE (the CG direction update).
var xpay = offload.NewFunc3[offload.Unit]("cg.xpay",
	func(c *offload.Ctx, p, r offload.BufferPtr[float64], beta float64) (offload.Unit, error) {
		pv, err := offload.ReadLocal(c, p, 0, p.Count)
		if err != nil {
			return offload.Unit{}, err
		}
		rv, err := offload.ReadLocal(c, r, 0, r.Count)
		if err != nil {
			return offload.Unit{}, err
		}
		for i := range pv {
			pv[i] = rv[i] + beta*pv[i]
		}
		c.ChargeVector(2*p.Count, 24*p.Count, 8)
		return offload.Unit{}, offload.WriteLocal(c, p, 0, pv)
	})

// hostLaplacian is the same operator on the host, for verification.
func hostLaplacian(in, out []float64, n int) {
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 4 * in[i*n+j]
			if i > 0 {
				s -= in[(i-1)*n+j]
			}
			if i < n-1 {
				s -= in[(i+1)*n+j]
			}
			if j > 0 {
				s -= in[i*n+j-1]
			}
			if j < n-1 {
				s -= in[i*n+j+1]
			}
			out[i*n+j] = s
		}
	}
}

func rhs() []float64 {
	// Three point sources: far from any Laplacian eigenvector, so CG needs a
	// realistic number of iterations.
	b := make([]float64, gridN*gridN)
	b[(gridN/4)*gridN+gridN/4] = 1
	b[(gridN/2)*gridN+2*gridN/3] = -0.5
	b[(3*gridN/4)*gridN+gridN/5] = 0.25
	return b
}

// solve runs CG with all kernels offloaded and returns (solution, iterations,
// solve time).
func solve(useDMA bool) ([]float64, int, machine.Duration, error) {
	m, err := machine.New(machine.Config{VEs: 1})
	if err != nil {
		return nil, 0, 0, err
	}
	x := make([]float64, gridN*gridN)
	iters := 0
	var span machine.Duration
	err = m.RunMain(func(p *machine.Proc) error {
		var rt *offload.Runtime
		var cerr error
		if useDMA {
			rt, cerr = machine.ConnectDMA(p, m, machine.ProtocolOptions{})
		} else {
			rt, cerr = machine.ConnectVEO(p, m, machine.ProtocolOptions{})
		}
		if cerr != nil {
			return cerr
		}
		defer func() { _ = rt.Finalize() }()
		target := offload.NodeID(1)
		n := int64(gridN * gridN)

		alloc := func() (offload.BufferPtr[float64], error) {
			return offload.Allocate[float64](rt, target, n)
		}
		xB, err := alloc()
		if err != nil {
			return err
		}
		rB, err := alloc()
		if err != nil {
			return err
		}
		pB, err := alloc()
		if err != nil {
			return err
		}
		apB, err := alloc()
		if err != nil {
			return err
		}

		// x = 0; r = p = b.
		b := rhs()
		if err := offload.Put(rt, b, rB); err != nil {
			return err
		}
		if err := offload.Put(rt, b, pB); err != nil {
			return err
		}

		start := m.Now()
		rr, err := offload.Sync(rt, target, dot.Bind(rB, rB))
		if err != nil {
			return err
		}
		for iters = 0; iters < maxIter && rr > tol*tol; iters++ {
			if _, err := offload.Sync(rt, target, applyLaplacian.Bind(pB, apB, int64(gridN))); err != nil {
				return err
			}
			pAp, err := offload.Sync(rt, target, dot.Bind(pB, apB))
			if err != nil {
				return err
			}
			alpha := rr / pAp
			if _, err := offload.Sync(rt, target, axpy.Bind(xB, pB, alpha)); err != nil {
				return err
			}
			if _, err := offload.Sync(rt, target, axpy.Bind(rB, apB, -alpha)); err != nil {
				return err
			}
			rrNew, err := offload.Sync(rt, target, dot.Bind(rB, rB))
			if err != nil {
				return err
			}
			if _, err := offload.Sync(rt, target, xpay.Bind(pB, rB, rrNew/rr)); err != nil {
				return err
			}
			rr = rrNew
		}
		span = m.Now() - start
		return offload.Get(rt, xB, x)
	})
	return x, iters, span, err
}

func main() {
	xVEO, itVEO, tVEO, err := solve(false)
	if err != nil {
		log.Fatal(err)
	}
	xDMA, itDMA, tDMA, err := solve(true)
	if err != nil {
		log.Fatal(err)
	}
	if itVEO != itDMA {
		log.Fatalf("iteration counts differ: %d vs %d", itVEO, itDMA)
	}
	for i := range xVEO {
		if xVEO[i] != xDMA[i] {
			log.Fatalf("solutions differ at %d", i)
		}
	}
	// Verify: residual of the returned solution against the host operator.
	b := rhs()
	ax := make([]float64, gridN*gridN)
	hostLaplacian(xDMA, ax, gridN)
	res := 0.0
	for i := range b {
		d := ax[i] - b[i]
		res += d * d
	}
	res = math.Sqrt(res)
	if res > 1e-4 {
		log.Fatalf("residual %g too large", res)
	}
	offloadsPerIter := 6
	fmt.Printf("CG on a %dx%d Laplacian: converged in %d iterations (residual %.2e, verified on host)\n",
		gridN, gridN, itDMA, res)
	fmt.Printf("  %d offloads/iteration; vectors stay VE-resident, only scalars cross PCIe\n", offloadsPerIter)
	fmt.Printf("  VEO protocol solve: %v\n", tVEO)
	fmt.Printf("  DMA protocol solve: %v  (%.1fx faster at this offload granularity)\n",
		tDMA, float64(tVEO)/float64(tDMA))
}
