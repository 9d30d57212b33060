package bench

import (
	"fmt"
	"io"

	"hamoffload/internal/units"
	"hamoffload/machine"
	"hamoffload/offload"
)

// RemoteResult captures the §VI-outlook experiment: local vs remote offload
// cost and data-path bandwidth in a two-machine cluster.
type RemoteResult struct {
	LocalUS      float64 // empty offload to a local VE
	RemoteUS     float64 // empty offload to a remote VE over IB
	PutLocalGiB  float64 // 64 MiB put to a local VE
	PutRemoteGiB float64 // 64 MiB put to a remote VE (staged over IB)
}

// Remote measures offloading across the simulated InfiniBand cluster: two
// machines of w's Config (a World is one machine), connected with w's options.
func Remote(w machine.World, reps int) (RemoteResult, error) {
	if reps <= 0 {
		reps = 100
	}
	var res RemoteResult
	cl, err := machine.NewCluster(2, w.Config)
	if err != nil {
		return res, err
	}
	err = cl.RunMain(func(p *machine.Proc) error {
		rt, err := machine.ConnectCluster(p, cl, w.Options)
		if err != nil {
			return err
		}
		defer func() { _ = rt.Finalize() }()
		// The first VE of machine 0, local to the host program, and the
		// first of machine 1, behind the IB proxy.
		ves := cl.VENodes()
		local, remote := ves[0], ves[len(cl.Nodes[0].Cards)]

		measure := func(node offload.NodeID) (float64, error) {
			op := func() error {
				_, err := offload.Sync(rt, node, benchEmpty.Bind())
				return err
			}
			return timedLoop(p, 10, reps, op)
		}
		if res.LocalUS, err = measure(local); err != nil {
			return err
		}
		if res.RemoteUS, err = measure(remote); err != nil {
			return err
		}

		// Bulk data path: 64 MiB puts.
		size := (64 * units.MiB).Int64()
		data := make([]float64, size/8)
		putBW := func(node offload.NodeID) (float64, error) {
			buf, err := offload.Allocate[float64](rt, node, size/8)
			if err != nil {
				return 0, err
			}
			us, err := timedLoop(p, 1, 3, func() error {
				return offload.Put(rt, data, buf)
			})
			if err != nil {
				return 0, err
			}
			if err := offload.Free(rt, buf); err != nil {
				return 0, err
			}
			return gibps(size, us), nil
		}
		if res.PutLocalGiB, err = putBW(local); err != nil {
			return err
		}
		if res.PutRemoteGiB, err = putBW(remote); err != nil {
			return err
		}
		return nil
	})
	return res, err
}

// RenderRemote prints the cluster experiment.
func RenderRemote(w io.Writer, r RemoteResult) {
	fmt.Fprintln(w, "Remote offloading over InfiniBand (§VI outlook, 2-node cluster)")
	fmt.Fprintf(w, "%-34s %10.2f us\n", "empty offload, local VE", r.LocalUS)
	fmt.Fprintf(w, "%-34s %10.2f us   (+IB round trip + proxy)\n", "empty offload, remote VE", r.RemoteUS)
	fmt.Fprintf(w, "%-34s %10.2f GiB/s\n", "64MiB put, local VE", r.PutLocalGiB)
	fmt.Fprintf(w, "%-34s %10.2f GiB/s (staged over IB)\n", "64MiB put, remote VE", r.PutRemoteGiB)
}

// PutGetPoint is one size of the offload-API data-path sweep.
type PutGetPoint struct {
	Size     int64
	PutGiBps float64
	GetGiBps float64
}

// PutGet measures Table II's put/get through the public offload API over the
// DMA protocol (whose bulk path is the VEO API, as in the paper) on a machine
// of w, relating the application-visible data-path to the raw Fig. 10 curves.
func PutGet(w machine.World, sizes []int64, reps int) ([]PutGetPoint, error) {
	if len(sizes) == 0 {
		sizes = []int64{
			(64 * units.KiB).Int64(), units.MiB.Int64(),
			(16 * units.MiB).Int64(), (64 * units.MiB).Int64(),
		}
	}
	if reps <= 0 {
		reps = 3
	}
	maxSize := sizes[len(sizes)-1]
	w.DMA = true
	w.HostMemoryBytes = maxSize*4 + (64 * units.MiB).Int64()
	w.VEMemoryBytes = maxSize*2 + (64 * units.MiB).Int64()
	var out []PutGetPoint
	_, err := w.Run(func(p *machine.Proc, _ *machine.Machine, rt *offload.Runtime) error {
		buf, err := offload.Allocate[float64](rt, 1, maxSize/8)
		if err != nil {
			return err
		}
		for _, size := range sizes {
			data := make([]float64, size/8)
			putUS, err := timedLoop(p, 1, reps, func() error {
				return offload.Put(rt, data, buf)
			})
			if err != nil {
				return err
			}
			getUS, err := timedLoop(p, 1, reps, func() error {
				return offload.Get(rt, buf, data)
			})
			if err != nil {
				return err
			}
			out = append(out, PutGetPoint{
				Size:     size,
				PutGiBps: gibps(size, putUS),
				GetGiBps: gibps(size, getUS),
			})
		}
		return nil
	})
	return out, err
}

// RenderPutGet prints the data-path sweep.
func RenderPutGet(w io.Writer, pts []PutGetPoint) {
	fmt.Fprintln(w, "offload.Put / offload.Get bandwidth (Table II data path; rides the VEO API)")
	fmt.Fprintf(w, "%-10s %12s %12s\n", "size", "put GiB/s", "get GiB/s")
	for _, p := range pts {
		fmt.Fprintf(w, "%-10s %12s %12s\n", sizeLabel(p.Size), fmtGiBps(p.PutGiBps), fmtGiBps(p.GetGiBps))
	}
}
