package main

import (
	"hamoffload/machine"
	"hamoffload/offload"
)

// The four small kernels of sync-dma, arity 0–3. They charge no VE compute:
// the workload measures the messaging path, as Fig. 9 does. Every kernel with
// arguments takes a byte payload of seed-drawn length, so message sizes — and
// with them the per-byte share of the latency — vary from op to op.
var (
	smallK0 = offload.NewFunc0[int64]("perf.small0",
		func(*offload.Ctx) (int64, error) { return 0x5EED, nil })
	smallK1 = offload.NewFunc1[int64]("perf.small1",
		func(_ *offload.Ctx, pay []byte) (int64, error) { return byteSum(pay), nil })
	smallK2 = offload.NewFunc2[int64]("perf.small2",
		func(_ *offload.Ctx, a int64, pay []byte) (int64, error) { return 3*a + byteSum(pay), nil })
	smallK3 = offload.NewFunc3[int64]("perf.small3",
		func(_ *offload.Ctx, a int64, b float64, pay []byte) (int64, error) {
			return a + int64(b) + byteSum(pay), nil
		})
	// emptyKernel is the paper's empty offload, used for warm-up and calib.
	emptyKernel = offload.NewFunc0[offload.Unit]("perf.empty",
		func(*offload.Ctx) (offload.Unit, error) { return offload.Unit{}, nil })
)

func byteSum(b []byte) int64 {
	var s int64
	for _, c := range b {
		s += int64(c)
	}
	return s
}

type smallOp struct {
	kernel int
	a      int64
	b      float64
	pay    []byte // 1–40 B, so a whole request stays within 64 B of payload
}

func (o *smallOp) want() int64 {
	switch o.kernel {
	case 0:
		return 0x5EED
	case 1:
		return byteSum(o.pay)
	case 2:
		return 3*o.a + byteSum(o.pay)
	}
	return o.a + int64(o.b) + byteSum(o.pay)
}

func genSmallOps(seed uint64, n int) []smallOp {
	r := newRNG(seed, 1)
	pool := make([]byte, 4096)
	for i := range pool {
		pool[i] = byte(r.next())
	}
	ops := make([]smallOp, n)
	for i := range ops {
		o := &ops[i]
		o.kernel = r.intn(4)
		o.a = int64(r.next() >> 20)
		o.b = float64(r.intn(1 << 20))
		off, ln := r.intn(len(pool)-40), 1+r.intn(40)
		o.pay = pool[off : off+ln]
	}
	return ops
}

// warmUp issues the untimed empty offloads that end every set-up.
func warmUp(rt *offload.Runtime, node offload.NodeID) error {
	for i := 0; i < warmupOps; i++ {
		if _, err := offload.Sync(rt, node, emptyKernel.Bind()); err != nil {
			return err
		}
	}
	return nil
}

// runSyncDMA is the closed loop of one client issuing back-to-back
// synchronous offloads of small kernels to one VE over the DMA protocol.
func runSyncDMA(r *round) error {
	ops := genSmallOps(r.seed, r.ops)
	if err := r.newMachine(machine.Config{VEs: 1}, nil); err != nil {
		return err
	}
	return r.runMain(func(p *machine.Proc) error {
		rt, err := r.connect(false, machine.ProtocolOptions{})
		if err != nil {
			return err
		}
		defer func() { _ = rt.Finalize() }()
		if err := warmUp(rt, 1); err != nil {
			return err
		}
		r.beginTimed()
		for i := range ops {
			o := &ops[i]
			t, s := r.tick(), p.Now()
			var got int64
			var err error
			switch o.kernel {
			case 0:
				got, err = offload.Sync(rt, 1, smallK0.Bind())
			case 1:
				got, err = offload.Sync(rt, 1, smallK1.Bind(o.pay))
			case 2:
				got, err = offload.Sync(rt, 1, smallK2.Bind(o.a, o.pay))
			default:
				got, err = offload.Sync(rt, 1, smallK3.Bind(o.a, o.b, o.pay))
			}
			r.done(p.Now().Sub(s), err == nil && got == o.want())
			r.spans.add("offload.Sync", "core", t, r.tick(), "timed", i)
		}
		r.endTimed()
		r.layer["core.wall_sync_ns_per_op"] = r.perOp(r.spans.ns("offload.Sync"))
		return nil
	})
}
