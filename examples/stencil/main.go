// Stencil: conjugate gradients on a 4-D periodic lattice, the solver that
// lattice-QCD codes spend their time in ("Lattice QCD on a novel vector
// architecture"), here for the free scalar operator
//
//	A·x = (8+m²)·x − Σ_μ (x₊μ + x₋μ),  μ ∈ {x, y, z, t},
//
// which is symmetric positive definite for m² > 0. The solver state (x, r, p,
// A·p) stays in VE memory for the whole solve; every iteration makes six
// offloads (an operator apply, two dot products, three axpbys) and only
// scalars cross PCIe. One program shows two of the paper's points:
//
//   - On one VE the protocol's per-offload cost multiplies directly into the
//     time to solution ("lower overhead means ... offloads can become more
//     fine-grained", §V-B). The program solves over both protocols and
//     compares them; the operator fills its own ghost planes, so no Copy runs.
//   - On four VEs the lattice is split along t, each VE holding its slices
//     between two ghost hyperplanes. Before every operator apply the host
//     refreshes the ghosts from the neighbouring VEs with offload.Copy, the
//     paper's copy primitive (Table II: "the operation is orchestrated by the
//     host"). VE-to-VE data has no direct path on this platform generation,
//     so each Copy stages through the host, and the program reports the
//     exchange's share.
//
// Every solution is checked on the host with the same operator body: the
// program exits non-zero unless ‖b − A·x‖₂ meets the CG tolerance and the two
// protocols agree bit for bit.
//
// Run with: go run ./examples/stencil
package main

import (
	"errors"
	"fmt"
	"log"
	"math"
	"slices"

	"hamoffload/machine"
	"hamoffload/offload"
)

const (
	edge    = 8                  // lattice edge length; edge⁴ sites
	plane   = edge * edge * edge // sites per t-hyperplane
	mass2   = 0.1                // m²
	tol     = 1e-8               // on ‖b − A·x‖₂, with ‖b‖₂ = 1
	maxIter = 200
)

// A field holds a VE's t-slices as planes 1..n of n+2 hyperplanes; planes 0
// and n+1 are ghosts of the neighbouring slices.
type field = offload.BufferPtr[float64]

// op writes A·in into the owned planes of out; in's ghost planes supply the
// t-neighbours of its edge planes. The VE kernel and the host check share it.
func op(in, out []float64) {
	for s := plane; s < len(in)-plane; s++ {
		nb := in[s-plane] + in[s+plane]
		for stride := 1; stride < plane; stride *= edge {
			c := s / stride % edge
			nb += in[s+((c+1)%edge-c)*stride] + in[s+((c+edge-1)%edge-c)*stride]
		}
		out[s] = (8+mass2)*in[s] - nb
	}
}

// wrap fills a field's ghost planes from its own edge planes: periodic t when
// one VE holds the whole lattice.
func wrap(v []float64) {
	n := len(v)
	copy(v[:plane], v[n-2*plane:n-plane])
	copy(v[n-plane:], v[plane:2*plane])
}

// owned returns the owned planes of a field inside a kernel.
func owned(c *offload.Ctx, f field) ([]float64, error) {
	return offload.ReadLocal(c, f, plane, f.Count-2*plane)
}

// apply writes A·in into out, first filling in's ghosts itself when wrapT.
// 10 flops and 10 doubles of traffic per site, on all 8 VE cores.
var apply = offload.NewFunc3[offload.Unit]("stencil.apply",
	func(c *offload.Ctx, in, out field, wrapT bool) (offload.Unit, error) {
		v, err := offload.ReadLocal(c, in, 0, in.Count)
		if err != nil {
			return offload.Unit{}, err
		}
		res, err := offload.ReadLocal(c, out, 0, out.Count)
		if err != nil {
			return offload.Unit{}, err
		}
		if wrapT {
			wrap(v)
		}
		op(v, res)
		sites := in.Count - 2*plane
		c.ChargeVector(10*sites, 80*sites, 8)
		return offload.Unit{}, nil
	})

// dot returns the inner product of two fields' owned planes.
var dot = offload.NewFunc2[float64]("stencil.dot",
	func(c *offload.Ctx, a, b field) (float64, error) {
		av, err := owned(c, a)
		if err != nil {
			return 0, err
		}
		bv, err := owned(c, b)
		if err != nil {
			return 0, err
		}
		c.ChargeVector(2*int64(len(av)), 16*int64(len(av)), 8)
		s := 0.0
		for i := range av {
			s += av[i] * bv[i]
		}
		return s, nil
	})

// axpby sets y ← a·x + b·y on the owned planes.
var axpby = offload.NewFunc4[offload.Unit]("stencil.axpby",
	func(c *offload.Ctx, y, x field, a, b float64) (offload.Unit, error) {
		yv, err := owned(c, y)
		if err != nil {
			return offload.Unit{}, err
		}
		xv, err := owned(c, x)
		if err != nil {
			return offload.Unit{}, err
		}
		for i := range yv {
			yv[i] = a*xv[i] + b*yv[i]
		}
		c.ChargeVector(3*int64(len(yv)), 24*int64(len(yv)), 8)
		return offload.Unit{}, nil
	})

// vecs are one VE's CG fields.
type vecs struct{ x, r, p, ap field }

// cg issues one solve's offloads. After the first failure it issues none and
// keeps the error.
type cg struct {
	rt  *offload.Runtime
	vs  []vecs
	err error
}

// each offloads bind(f) to every VE, f being that VE's fields, and returns
// the results in VE order.
func each[R any](s *cg, bind func(vecs) offload.Functor[R]) []R {
	if s.err != nil {
		return nil
	}
	futs := make([]*offload.Future[R], len(s.vs))
	for v, f := range s.vs {
		futs[v] = offload.Async(s.rt, offload.NodeID(v+1), bind(f))
	}
	rs, err := offload.GetAll(futs)
	s.err = err
	return rs
}

// sum is the global inner product of the per-VE dot products bind returns.
func (s *cg) sum(bind func(vecs) offload.Functor[float64]) float64 {
	t := 0.0
	for _, r := range each(s, bind) {
		t += r
	}
	return t
}

// exchange refreshes every VE's ghost planes of p, n planes per VE: VE v's
// last plane is the lower ghost of v+1, whose first plane is v's upper ghost.
func (s *cg) exchange(n int64) {
	for v, f := range s.vs {
		up := s.vs[(v+1)%len(s.vs)].p
		s.copyPlane(f.p, n, up, 0)
		s.copyPlane(up, 1, f.p, n+1)
	}
}

// copyPlane copies plane sp of src to plane dp of dst, staged by the host.
func (s *cg) copyPlane(src field, sp int64, dst field, dp int64) {
	from, err := src.Offset(sp * plane)
	to, err2 := dst.Offset(dp * plane)
	if s.err == nil {
		s.err = errors.Join(err, err2)
	}
	if s.err == nil {
		s.err = offload.Copy(s.rt, from, to, plane)
	}
}

// unit and scalar are the bound kernels each and sum offload.
type unit = offload.Functor[offload.Unit]
type scalar = offload.Functor[float64]

// solve runs CG for A·x = b with the lattice split along t over ves VEs, on
// the DMA protocol or the VEO one. It returns x, the iteration count, the
// solve time and the part of it spent refreshing ghost planes.
func solve(b []float64, dma bool, ves int) (x []float64, iters int, total, halo machine.Duration, err error) {
	x = make([]float64, len(b))
	n := int64(edge / ves) // owned planes per VE
	world := machine.World{Config: machine.Config{VEs: ves}, DMA: dma}
	_, err = world.Run(func(_ *machine.Proc, m *machine.Machine, rt *offload.Runtime) error {
		s := &cg{rt: rt, vs: make([]vecs, ves)}
		slab := make([]float64, (n+2)*plane)
		for v := range s.vs {
			f := &s.vs[v]
			for _, buf := range []*field{&f.x, &f.r, &f.p, &f.ap} {
				var err error
				if *buf, err = offload.Allocate[float64](rt, offload.NodeID(v+1), int64(len(slab))); err != nil {
					return err
				}
			}
			// x = 0; r = p = b.
			clear(slab)
			if err := offload.Put(rt, slab, f.x); err != nil {
				return err
			}
			copy(slab[plane:], b[int64(v)*n*plane:][:n*plane])
			if err := errors.Join(offload.Put(rt, slab, f.r), offload.Put(rt, slab, f.p)); err != nil {
				return err
			}
		}

		start := m.Now()
		rr := s.sum(func(f vecs) scalar { return dot.Bind(f.r, f.r) })
		for ; s.err == nil && iters < maxIter && rr > tol*tol; iters++ {
			exStart := m.Now()
			if ves > 1 {
				s.exchange(n)
			}
			halo += m.Now() - exStart
			each(s, func(f vecs) unit { return apply.Bind(f.p, f.ap, ves == 1) })
			alpha := rr / s.sum(func(f vecs) scalar { return dot.Bind(f.p, f.ap) })
			each(s, func(f vecs) unit { return axpby.Bind(f.x, f.p, alpha, 1) })
			each(s, func(f vecs) unit { return axpby.Bind(f.r, f.ap, -alpha, 1) })
			rrNew := s.sum(func(f vecs) scalar { return dot.Bind(f.r, f.r) })
			each(s, func(f vecs) unit { return axpby.Bind(f.p, f.r, 1, rrNew/rr) })
			rr = rrNew
		}
		total = m.Now() - start
		for v, f := range s.vs {
			if s.err == nil {
				s.err = offload.Get(rt, f.x, slab)
				copy(x[int64(v)*n*plane:], slab[plane:(n+1)*plane])
			}
		}
		return s.err
	})
	return x, iters, total, halo, err
}

// residual returns ‖b − A·x‖₂, applying A on the host.
func residual(b, x []float64) float64 {
	v := make([]float64, len(x)+2*plane)
	copy(v[plane:], x)
	wrap(v)
	ax := make([]float64, len(v))
	op(v, ax)
	s := 0.0
	for i, bi := range b {
		d := bi - ax[plane+i]
		s += d * d
	}
	return math.Sqrt(s)
}

func main() {
	// A point source at the origin: x is the lattice propagator.
	b := make([]float64, edge*plane)
	b[0] = 1
	check := func(what string, x []float64, err error) {
		if err != nil {
			log.Fatalf("%s: %v", what, err)
		}
		if res := residual(b, x); !(res <= tol) {
			log.Fatalf("%s: ‖b − A·x‖₂ = %.3g, want ≤ %g", what, res, tol)
		}
	}

	fmt.Printf("CG on a periodic %d⁴ lattice, A = (8+m²) − Σ_μ(shift₊μ + shift₋μ), m² = %g, point source\n",
		edge, mass2)
	fmt.Printf("1 VE, 6 offloads per iteration, only scalars cross PCIe; ‖b − A·x‖₂ ≤ %g checked on the host\n", tol)
	var xs [2][]float64
	var its [2]int
	var totals [2]machine.Duration
	for i, proto := range []string{"VEO", "DMA"} {
		var err error
		xs[i], its[i], totals[i], _, err = solve(b, i == 1, 1)
		check(proto, xs[i], err)
		fmt.Printf("  %s protocol: %d iterations, total %-10v per iteration %v\n",
			proto, its[i], totals[i], totals[i]/machine.Duration(its[i]))
	}
	if its[0] != its[1] || !slices.Equal(xs[0], xs[1]) {
		log.Fatalf("VEO and DMA solutions differ (%d and %d iterations)", its[0], its[1])
	}
	fmt.Printf("DMA protocol shortens the solve by %.1fx at this offload granularity.\n",
		float64(totals[0])/float64(totals[1]))

	const ves = 4
	x, iters, total, halo, err := solve(b, true, ves)
	check(fmt.Sprintf("%d VEs", ves), x, err)
	fmt.Printf("%d VEs, lattice split along t, ghost planes refreshed with Copy before each apply: %d iterations (checked)\n",
		ves, iters)
	fmt.Printf("  total %v; halo exchange %v (%.0f%% — host-staged VE-to-VE copies dominate)\n",
		total, halo, 100*float64(halo)/float64(total))
}
