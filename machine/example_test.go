package machine_test

import (
	"fmt"
	"log"

	"hamoffload/machine"
	"hamoffload/offload"
)

// exScale is an offloadable function shared by the examples, registered at
// package level like C++ static initialisation.
var exScale = offload.NewFunc2[float64]("machine_example.scale_sum",
	func(c *offload.Ctx, buf offload.BufferPtr[float64], f float64) (float64, error) {
		v, err := offload.ReadLocal(c, buf, 0, buf.Count)
		if err != nil {
			return 0, err
		}
		c.ChargeVector(2*buf.Count, 8*buf.Count, 8)
		s := 0.0
		for i := range v {
			s += v[i] * f
		}
		return s, nil
	})

// Example runs a complete offload program on the simulated A300-8 using the
// paper's DMA protocol. The simulation is deterministic, so even the
// simulated timing in the output is exact.
func Example() {
	m, err := machine.New(machine.Config{VEs: 1})
	if err != nil {
		log.Fatal(err)
	}
	err = m.RunMain(func(p *machine.Proc) error {
		rt, err := machine.ConnectDMA(p, m, machine.ProtocolOptions{})
		if err != nil {
			return err
		}
		defer func() { _ = rt.Finalize() }()

		target := offload.NodeID(1)
		buf, err := offload.Allocate[float64](rt, target, 4)
		if err != nil {
			return err
		}
		if err := offload.Put(rt, []float64{1, 2, 3, 4}, buf); err != nil {
			return err
		}
		sum, err := offload.Sync(rt, target, exScale.Bind(buf, 10.0))
		if err != nil {
			return err
		}
		fmt.Printf("scaled sum = %v\n", sum)
		return offload.Free(rt, buf)
	})
	if err != nil {
		log.Fatal(err)
	}
	// Output: scaled sum = 100
}

// Example_cluster offloads to a remote machine's Vector Engine over the
// simulated InfiniBand fabric — the paper's §VI outlook — with the same
// functor used locally. Both offloads are issued with Async before either
// future is harvested, so the two machines can work at once.
func Example_cluster() {
	cl, err := machine.NewCluster(2, machine.Config{VEs: 1})
	if err != nil {
		log.Fatal(err)
	}
	err = cl.RunMain(func(p *machine.Proc) error {
		rt, err := machine.ConnectCluster(p, cl, machine.ProtocolOptions{})
		if err != nil {
			return err
		}
		defer func() { _ = rt.Finalize() }()
		nodes := []offload.NodeID{1, 2} // the local VE, the remote one
		futs := make([]*offload.Future[float64], len(nodes))
		for i, node := range nodes {
			buf, err := offload.Allocate[float64](rt, node, 3)
			if err != nil {
				return err
			}
			if err := offload.Put(rt, []float64{1, 1, 1}, buf); err != nil {
				return err
			}
			futs[i] = offload.Async(rt, node, exScale.Bind(buf, 2.0))
		}
		for i, f := range futs {
			sum, err := f.Get()
			if err != nil {
				return err
			}
			fmt.Printf("node %d: %v\n", nodes[i], sum)
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	// Output:
	// node 1: 6
	// node 2: 6
}
