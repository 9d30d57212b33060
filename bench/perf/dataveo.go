package main

import (
	"hamoffload/machine"
	"hamoffload/offload"
)

// scaleKernel multiplies the first n elements of a VE buffer in place and
// returns their new sum; it charges one streaming pass over the data.
var scaleKernel = offload.NewFunc3[float64]("perf.scale",
	func(c *offload.Ctx, buf offload.BufferPtr[float64], n int64, f float64) (float64, error) {
		v, err := offload.ReadLocal(c, buf, 0, n)
		if err != nil {
			return 0, err
		}
		sum := 0.0
		for i := range v {
			v[i] *= f
			sum += v[i]
		}
		c.ChargeVector(2*n, 16*n, 8)
		return sum, offload.WriteLocal(c, buf, 0, v)
	})

// Size classes of data-veo in float64 elements: 4 KiB, 64 KiB, 1 MiB and
// 16 MiB, crossing Fig. 10's latency-bound and bandwidth-bound regimes.
var (
	classElems = [4]int{4 << 10 / 8, 64 << 10 / 8, 1 << 20 / 8, 16 << 20 / 8}
	classNames = [4]string{"4k", "64k", "1m", "16m"}
	// classWeights is the mix per 64 ops. It is dealt exactly, not drawn, so
	// every seed moves the same bytes and only their order differs: the median
	// op is a 64 KiB one and the p99 op a 16 MiB one on every seed, each well
	// inside its class and not on a boundary a seed could tip it over.
	classWeights = [4]int{24, 32, 7, 1}
)

const dataBlock = 64 // ops per exactly-dealt block of the class mix

type dataOp struct {
	class  int
	elems  int // class size less a seed-drawn trim of under 64 elements
	factor float64
}

func genDataOps(seed uint64, n int) []dataOp {
	r := newRNG(seed, 2)
	ops := make([]dataOp, 0, n+dataBlock)
	for len(ops) < n {
		start := len(ops)
		for c, w := range classWeights {
			for i := 0; i < w; i++ {
				ops = append(ops, dataOp{class: c})
			}
		}
		block := ops[start:]
		r.shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
	}
	ops = ops[:n]
	for i := range ops {
		ops[i].elems = classElems[ops[i].class] - r.intn(64)
		ops[i].factor = 1 + float64(1+r.intn(7))/8 // exact in binary, so results verify exactly
	}
	return ops
}

// runDataVEO is the closed loop of one client moving data over the VEO
// protocol: Put → kernel over the buffer → Get → verify, per op.
func runDataVEO(r *round) error {
	ops := genDataOps(r.seed, r.ops)
	src := make([]float64, classElems[3])
	dst := make([]float64, classElems[3])
	rs := newRNG(r.seed, 3)
	for i := range src {
		src[i] = float64(rs.intn(1 << 16))
	}
	if err := r.newMachine(machine.Config{VEs: 1}, nil); err != nil {
		return err
	}
	return r.runMain(func(p *machine.Proc) error {
		rt, err := r.connect(true, machine.ProtocolOptions{})
		if err != nil {
			return err
		}
		defer func() { _ = rt.Finalize() }()
		var bufs [4]offload.BufferPtr[float64]
		for c := range bufs {
			if bufs[c], err = offload.Allocate[float64](rt, 1, int64(classElems[c])); err != nil {
				return err
			}
		}
		if err := warmUp(rt, 1); err != nil {
			return err
		}

		var putSim, getSim [4]machine.Duration
		var count [4]int
		var kib [4]float64
		r.beginTimed()
		for i := range ops {
			o := &ops[i]
			in, out := src[:o.elems], dst[:o.elems]
			t0, s0 := r.tick(), p.Now()
			perr := offload.Put(rt, in, bufs[o.class])
			t1, s1 := r.tick(), p.Now()
			sum, serr := offload.Sync(rt, 1, scaleKernel.Bind(bufs[o.class], int64(o.elems), o.factor))
			t2, s2 := r.tick(), p.Now()
			gerr := offload.Get(rt, bufs[o.class], out)
			s3 := p.Now()
			t3 := r.tick()
			r.spans.add("offload.Put", "veo", t0, t1, "timed", i)
			r.spans.add("offload.Sync", "core", t1, t2, "timed", i)
			r.spans.add("offload.Get", "veo", t2, t3, "timed", i)
			ok := perr == nil && serr == nil && gerr == nil
			want := 0.0
			for j, v := range in {
				w := v * o.factor
				want += w
				ok = ok && out[j] == w
			}
			r.done(s3.Sub(s0), ok && sum == want)
			putSim[o.class] += s1.Sub(s0)
			getSim[o.class] += s3.Sub(s2)
			count[o.class]++
			kib[o.class] += float64(o.elems) * 8 / 1024
		}
		r.endTimed()

		for c, name := range classNames {
			if count[c] == 0 {
				continue
			}
			r.layer["veo.sim_put_us_"+name] = putSim[c].Microseconds() / float64(count[c])
			r.layer["veo.sim_get_us_"+name] = getSim[c].Microseconds() / float64(count[c])
		}
		if count[3] > 0 {
			gib := kib[3] / (1 << 20)
			r.layer["veo.sim_put_gib_s_16m"] = gib / putSim[3].Seconds()
			r.layer["veo.sim_get_gib_s_16m"] = gib / getSim[3].Seconds()
		}
		moved := kib[0] + kib[1] + kib[2] + kib[3]
		r.layer["veo.wall_put_ns_per_kib"] = r.spans.ns("offload.Put") / moved
		r.layer["veo.wall_get_ns_per_kib"] = r.spans.ns("offload.Get") / moved
		r.layer["core.wall_sync_ns_per_op"] = r.perOp(r.spans.ns("offload.Sync"))
		return nil
	})
}
