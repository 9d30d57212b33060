// Package machine assembles simulated NEC SX-Aurora TSUBASA systems and
// wires HAM-Offload applications onto them. It is the public entry point for
// running offload programs against the simulated A300-8: create a Machine,
// run the host program as a simulated process, and connect to the Vector
// Engines through either of the paper's two protocols.
//
//	m, _ := machine.New(machine.Config{VEs: 1})
//	err := m.RunMain(func(p *machine.Proc) error {
//	    rt, _ := machine.ConnectDMA(p, m, machine.ProtocolOptions{})
//	    defer rt.Finalize()
//	    // offload.Allocate / Put / Async / ...
//	    return nil
//	})
package machine

import (
	"fmt"

	"hamoffload/internal/backend/dmab"
	"hamoffload/internal/backend/ring"
	"hamoffload/internal/backend/veob"
	"hamoffload/internal/core"
	"hamoffload/internal/dma"
	"hamoffload/internal/faults"
	"hamoffload/internal/hostmem"
	"hamoffload/internal/pcie"
	"hamoffload/internal/simtime"
	"hamoffload/internal/topology"
	"hamoffload/internal/units"
	"hamoffload/internal/vemem"
	"hamoffload/internal/veos"
)

// Proc is a simulated process; the host program receives one and passes it
// to every blocking machine operation.
type Proc = simtime.Proc

// Duration is simulated time in picoseconds.
type Duration = simtime.Duration

// Common durations for configuring and measuring simulated time.
const (
	Nanosecond  = simtime.Nanosecond
	Microsecond = simtime.Microsecond
	Millisecond = simtime.Millisecond
	Second      = simtime.Second
)

// Config selects the simulated system and its operating parameters.
type Config struct {
	// VEs is the number of Vector Engine cards to attach (1..8, default 1).
	VEs int
	// Socket pins the VH process (0 or 1, default 0). Offloading from
	// socket 1 to VE 0 crosses the UPI link (§V-A).
	Socket int
	// NaiveDMAManager disables the VEOS 1.3.2-4dma bulk translation,
	// reverting to per-page translation (the A3 ablation).
	NaiveDMAManager bool
	// HostMemoryBytes sizes the VH heap (default 8 GiB of address space;
	// memory is lazily backed).
	HostMemoryBytes int64
	// VEMemoryBytes sizes each VE's HBM (default the Type 10B's 48 GiB).
	VEMemoryBytes int64
	// Timing overrides the calibrated cost model; nil uses DefaultTiming.
	// Its HostPageSize is the DMA translation page: 2 MiB huge pages by
	// default, as the paper requires for peak bandwidth.
	Timing *topology.Timing
	// Faults installs a deterministic fault-injection plan on the machine's
	// substrate (DMA engines, PCIe links, VEOS). Nil — the default — means
	// no injection and zero overhead; see internal/faults and docs/FAULTS.md.
	Faults *faults.Plan
}

// Machine is one simulated SX-Aurora node: engine, fabric, host memory and
// VE cards.
type Machine struct {
	Eng    *simtime.Engine
	Sys    *topology.System
	Timing topology.Timing
	Fabric *pcie.Fabric
	Host   *hostmem.Host
	Cards  []*veos.Card
	Socket int
}

// New builds a simulated A300-8 with cfg's parameters.
func New(cfg Config) (*Machine, error) {
	return newWithEngine(simtime.NewEngine(), "", cfg)
}

// newWithEngine builds a machine on an existing engine; prefix distinguishes
// the memories of cluster nodes in diagnostics.
func newWithEngine(eng *simtime.Engine, prefix string, cfg Config) (*Machine, error) {
	if cfg.VEs == 0 {
		cfg.VEs = 1
	}
	sys := topology.A300_8()
	if cfg.VEs < 1 || cfg.VEs > len(sys.VEs) {
		return nil, fmt.Errorf("machine: VEs must be 1..%d, got %d", len(sys.VEs), cfg.VEs)
	}
	if cfg.Socket < 0 || cfg.Socket >= len(sys.Sockets) {
		return nil, fmt.Errorf("machine: socket must be 0..%d, got %d", len(sys.Sockets)-1, cfg.Socket)
	}
	timing := topology.DefaultTiming()
	if cfg.Timing != nil {
		timing = *cfg.Timing
	}
	if cfg.Faults != nil {
		timing.Faults = faults.New(cfg.Faults)
	}
	if err := timing.Validate(); err != nil {
		return nil, err
	}
	hostBytes := cfg.HostMemoryBytes
	if hostBytes == 0 {
		hostBytes = (8 * units.GiB).Int64()
	}
	veBytes := cfg.VEMemoryBytes
	if veBytes == 0 {
		veBytes = sys.VEs[0].Spec.MaxMemory.Int64()
	}
	mode := dma.TranslateBulk4DMA
	if cfg.NaiveDMAManager {
		mode = dma.TranslateNaive
	}

	fab, err := pcie.NewFabric(eng, sys, timing)
	if err != nil {
		return nil, err
	}
	host, err := hostmem.New(prefix+"vh", units.Bytes(hostBytes), timing.HostPageSize)
	if err != nil {
		return nil, err
	}
	m := &Machine{Eng: eng, Sys: sys, Timing: timing, Fabric: fab, Host: host, Socket: cfg.Socket}
	for i := 0; i < cfg.VEs; i++ {
		veMem, err := vemem.New(fmt.Sprintf("%sve%d", prefix, i), units.Bytes(veBytes))
		if err != nil {
			return nil, err
		}
		path, err := fab.PathFrom(cfg.Socket, i)
		if err != nil {
			return nil, err
		}
		m.Cards = append(m.Cards, veos.NewCard(eng, i, timing, host, veMem, path, mode))
	}
	return m, nil
}

// RunMain runs fn as the VH program process and drives the simulation until
// it returns (or the simulation errors). It returns fn's error, or the
// engine's.
func (m *Machine) RunMain(fn func(p *Proc) error) error {
	var appErr error
	m.Eng.Spawn("vh-main", func(p *simtime.Proc) {
		appErr = fn(p)
		m.Eng.Stop()
	})
	runErr := m.Eng.Run()
	m.Eng.Shutdown()
	if appErr != nil {
		return appErr
	}
	return runErr
}

// Now returns the machine's simulated clock.
func (m *Machine) Now() Duration { return Duration(m.Eng.Now()) }

// ProtocolOptions configures a HAM-Offload connection to the machine's VEs.
type ProtocolOptions struct {
	// NumBuffers is the number of message slots per direction (default 8).
	NumBuffers int
	// BufSize is the capacity of one message buffer (default 4 KiB).
	BufSize int
	// ResultViaDMA makes the DMA protocol return results through a user-DMA
	// write instead of SHM word stores (an ablation; default false = SHM,
	// which the paper found faster for small messages).
	ResultViaDMA bool
	// OffloadTimeout bounds the simulated wait for any single offload
	// attempt; past it, the future fails with core.ErrOffloadTimeout. The
	// default 0 waits forever (the pre-fault-tolerance behaviour).
	OffloadTimeout Duration
	// Retry is the runtime's policy for transient offload failures. The
	// zero value disables retries and keeps the wire format bit-identical
	// to the plain protocol; see core.FaultTolerance.
	Retry core.FaultTolerance
	// Batch arms message batching on the runtime: offloads queued through
	// a Batcher (offload.AsyncBatch, sched.Map) coalesce into one wire
	// message per node, amortising the per-message protocol cost. The zero
	// value disables batching and keeps wire bytes bit-identical to the
	// plain protocol; see core.BatchPolicy.
	Batch core.BatchPolicy
	// Hedge arms hedged requests: an offload still in flight after the
	// configured simulated delay is speculatively re-issued to a second
	// healthy VE and the first settled copy wins. Requires Retry (the
	// envelope's sequence numbers make the duplicate safe); the zero value
	// disables hedging. See core.HedgePolicy.
	Hedge core.HedgePolicy
	// RetryBudget is the per-target token bucket shared by retries and
	// hedges, bounding how much extra traffic resilience machinery can aim
	// at a degraded VE. The zero value is unbudgeted; see core.RetryBudget.
	RetryBudget core.RetryBudget
}

// ringOptions returns the slot-ring options both SX-Aurora protocols share.
func (o ProtocolOptions) ringOptions() ring.Options {
	return ring.Options{
		NumBuffers:     o.NumBuffers,
		BufSize:        o.BufSize,
		OffloadTimeout: o.OffloadTimeout,
	}
}

func (o ProtocolOptions) dmaOptions() dmab.Options {
	return dmab.Options{Options: o.ringOptions(), ResultViaDMA: o.ResultViaDMA}
}

// runtime wraps a connected backend in the host runtime: tracer (labelled
// with the backend's name) from the machine's timing, policies from the
// options.
func (o ProtocolOptions) runtime(b core.Backend, arch, name string, t *topology.Timing, p *Proc) *core.Runtime {
	rt := core.NewRuntime(b, arch)
	rt.SetTracer(t.Tracer.Node(0, name, p))
	rt.SetFaultTolerance(o.Retry)
	rt.SetBatching(o.Batch)
	rt.SetHedging(o.Hedge)
	rt.SetRetryBudget(o.RetryBudget)
	return rt
}

// ConnectVEO sets up HAM-Offload over the paper's VEO protocol (§III-D):
// communication buffers in VE memory, all transfers through privileged DMA.
// It returns the host runtime; targets are nodes 1..VEs.
func ConnectVEO(p *Proc, m *Machine, opts ProtocolOptions) (*core.Runtime, error) {
	b, err := veob.Connect(p, m.Cards, opts.ringOptions())
	if err != nil {
		return nil, err
	}
	return opts.runtime(b, "x86_64-vh", "veob", &m.Timing, p), nil
}

// ConnectDMA sets up HAM-Offload over the paper's DMA protocol (§IV-B):
// communication buffers in a VH shared-memory segment, VE-initiated LHM
// polls, user-DMA message fetches and SHM result stores.
func ConnectDMA(p *Proc, m *Machine, opts ProtocolOptions) (*core.Runtime, error) {
	b, err := dmab.Connect(p, m.Cards, opts.dmaOptions())
	if err != nil {
		return nil, err
	}
	return opts.runtime(b, "x86_64-vh", "dmab", &m.Timing, p), nil
}
