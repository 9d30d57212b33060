// Package vecore provides the execution cost model for code running on a
// Vector Engine. Offloaded kernels in this repository do their arithmetic in
// Go (so results are real), and use this model to advance simulated time by
// what the same work would have cost on a VE Type 10B: vectorised code runs
// against the roofline of 2150.4 GFLOPS and 1228.8 GB/s HBM bandwidth, while
// scalar code crawls at a rate limited by the 1.4 GHz scalar pipeline — the
// paper's motivation for offloading only the data-parallel parts (§I).
package vecore

import (
	"hamoffload/internal/simtime"
	"hamoffload/internal/topology"
)

// Model estimates kernel execution times for one VE.
type Model struct {
	Spec topology.VESpec
	// VectorEfficiency derates peak FLOPS for real vector kernels (loop
	// remainders, dependencies). 0 < e <= 1.
	VectorEfficiency float64
	// ScalarIPC is the sustained instructions/cycle of the scalar pipeline.
	ScalarIPC float64
	// LaunchOverhead is the fixed cost of entering a kernel (call, VL setup).
	LaunchOverhead simtime.Duration
}

// DefaultModel returns a model for the VE Type 10B with conservative
// real-world efficiencies.
func DefaultModel() Model {
	return Model{
		Spec:             topology.VEType10B(),
		VectorEfficiency: 0.85,
		ScalarIPC:        1.0,
		LaunchOverhead:   200 * simtime.Nanosecond,
	}
}

// VectorTime returns the roofline execution time of a vectorised kernel
// performing flops floating-point operations over bytes of memory traffic,
// spread across cores VE cores (1..Spec.Cores).
func (m Model) VectorTime(flops, bytes int64, cores int) simtime.Duration {
	if cores < 1 {
		cores = 1
	}
	if cores > m.Spec.Cores {
		cores = m.Spec.Cores
	}
	frac := float64(cores) / float64(m.Spec.Cores)
	peak := m.Spec.PeakGFLOPS * 1e9 * m.VectorEfficiency * frac
	var ft, bt simtime.Duration
	if flops > 0 {
		ft = simtime.Duration(float64(flops) / peak * float64(simtime.Second))
	}
	if bytes > 0 {
		// HBM bandwidth is shared; a single core cannot saturate it alone,
		// but near-full bandwidth is reachable from a few cores. Model the
		// per-core share with a generous 2× single-core burst factor.
		bw := float64(m.Spec.MemoryBandwidth) * frac
		if burst := 2 * float64(m.Spec.MemoryBandwidth) / float64(m.Spec.Cores) * float64(cores); bw < burst {
			bw = burst
		}
		if max := float64(m.Spec.MemoryBandwidth); bw > max {
			bw = max
		}
		bt = simtime.BytesOver(bytes, bw)
	}
	t := ft
	if bt > t {
		t = bt
	}
	return m.LaunchOverhead + t
}

// ScalarTime returns the execution time of ops scalar instructions on one
// core — the slow path the paper warns about for non-vectorised code.
func (m Model) ScalarTime(ops int64) simtime.Duration {
	if ops <= 0 {
		return 0
	}
	cycles := float64(ops) / m.ScalarIPC
	return simtime.Duration(cycles / (m.Spec.ClockGHz * 1e9) * float64(simtime.Second))
}

// HostModel estimates the same kernels on the Vector Host CPU, for
// load-balancing examples that split work between VH and VEs.
type HostModel struct {
	Spec             topology.CPUSpec
	VectorEfficiency float64
}

// DefaultHostModel returns a model for one Xeon Gold 6126 socket.
func DefaultHostModel() HostModel {
	return HostModel{Spec: topology.XeonGold6126(), VectorEfficiency: 0.8}
}

// VectorTime is the host-side roofline time of a kernel on cores cores.
func (h HostModel) VectorTime(flops, bytes int64, cores int) simtime.Duration {
	if cores < 1 {
		cores = 1
	}
	if cores > h.Spec.Cores {
		cores = h.Spec.Cores
	}
	frac := float64(cores) / float64(h.Spec.Cores)
	peak := h.Spec.PeakGFLOPS * 1e9 * h.VectorEfficiency * frac
	var ft, bt simtime.Duration
	if flops > 0 {
		ft = simtime.Duration(float64(flops) / peak * float64(simtime.Second))
	}
	if bytes > 0 {
		bt = simtime.BytesOver(bytes, float64(h.Spec.MemoryBandwidth)*frac)
	}
	if bt > ft {
		return bt
	}
	return ft
}

// HostClock is the clock of a simulated Vector Host process: the process's
// own simulated time, with kernel work charged by the default host roofline
// model. It implements core.Clock for the initiator side of every backend
// that runs on the DES (backend/ring, backend/mpib).
type HostClock struct {
	*simtime.Proc // Now and Sleep
}

var hostModel = DefaultHostModel()

// ChargeVector advances the process by the host roofline time of the kernel.
func (c HostClock) ChargeVector(flops, bytes int64, cores int) {
	c.Sleep(hostModel.VectorTime(flops, bytes, cores))
}

// Simulated is true: the process runs on the DES clock.
func (HostClock) Simulated() bool { return true }
