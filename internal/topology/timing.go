package topology

import (
	"fmt"

	"hamoffload/internal/faults"
	"hamoffload/internal/simtime"
	"hamoffload/internal/trace"
	"hamoffload/internal/units"
)

// Timing holds every calibrated cost constant of the simulation. All latency
// and bandwidth behaviour of the machine model derives from this one struct,
// so the whole calibration against the paper's measurements lives here.
//
// Calibration targets (paper §V, Figs. 9-10, Table IV):
//
//   - PCIe round trip ~1.2 µs (cited from the HAM-Offload SC'14 paper).
//   - Native VEO empty offload ≈ 80 µs (derived: the DMA protocol's 6.1 µs is
//     reported 13.1× faster than native VEO).
//   - HAM-Offload over VEO ≈ 430 µs (5.4× native VEO, 70.8× the DMA protocol).
//   - HAM-Offload over user DMA ≈ 6.1 µs = 1.2 µs PCIe RTT + ~5 µs framework.
//   - Offloading from the second socket adds up to ~1 µs (UPI hops).
//   - Table IV peaks: VEO read/write 9.9 / 10.4 GiB/s, VE user DMA
//     10.6 / 11.1 GiB/s, SHM/LHM 0.01 / 0.06 GiB/s (VH→VE / VE→VH).
//   - User DMA near peak at ~1 MiB; VEO transfers need ~64 MiB.
//   - SHM beats user DMA up to 256 B (≈89 % faster for one word, ≈16 % at
//     256 B) and beats VEO-read for small messages.
type Timing struct {
	// --- PCIe / UPI fabric --------------------------------------------------

	// PCIeLatency is the one-way propagation latency VH root complex → VE
	// (or back) through one switch. Two of these form the ~1.2 µs round trip.
	PCIeLatency simtime.Duration
	// PCIeRawRate is the raw Gen3 x16 line rate in bytes/second (14.7 GiB/s).
	PCIeRawRate float64
	// PCIeMaxPayload is the maximum TLP payload (256 B for the VE).
	PCIeMaxPayload units.Bytes
	// PCIeTLPHeader is the per-TLP protocol overhead in bytes; with 256 B
	// payloads this yields the paper's 91 % ≙ 13.4 GiB/s achievable ceiling.
	PCIeTLPHeader units.Bytes
	// UPILatency is the one-way latency added per UPI hop when the initiating
	// process runs on the socket not hosting the VE's PCIe switch.
	UPILatency simtime.Duration

	// --- VEOS service chain (privileged DMA, VEO calls) ---------------------

	// VEOLibOverhead is the user-space VEO library cost on the VH per API
	// call (argument marshalling, locking, syscall entry).
	VEOLibOverhead simtime.Duration
	// IPCUserVEOS is the one-way cost of the pseudo-process ↔ VEOS daemon
	// IPC (unix socket + scheduling).
	IPCUserVEOS simtime.Duration
	// DriverHop is the VEOS ↔ ve_drv/vp kernel module interaction per DMA
	// request (command window programming).
	DriverHop simtime.Duration
	// PrivDMAKick is the cost of posting a descriptor to the privileged DMA
	// engine and raising/handling its completion interrupt.
	PrivDMAKick simtime.Duration
	// PrivDMAReadExtra is the additional one-off cost of a VE→VH read via
	// VEO: the DMA manager must issue a remote descriptor fetch and
	// synchronise with the VE memory controller before data flows back.
	PrivDMAReadExtra simtime.Duration
	// PrivTranslatePerPage is the on-the-fly virtual→physical translation
	// cost per VH page in the naive (pre-4dma) DMA manager.
	PrivTranslatePerPage simtime.Duration
	// BulkTranslateFixed and BulkTranslatePerPage describe the VEOS
	// 1.3.2-4dma bulk translation: a fixed setup plus a pipelined per-page
	// cost that overlaps with descriptor generation and the DMA transfer.
	BulkTranslateFixed   simtime.Duration
	BulkTranslatePerPage simtime.Duration
	// PrivDMAWriteRate / PrivDMAReadRate are the sustained privileged-DMA
	// payload rates (bytes/s) for VH→VE writes and VE→VH reads.
	PrivDMAWriteRate float64
	PrivDMAReadRate  float64

	// --- Native VEO function calls ------------------------------------------

	// VEOCallSubmit is the VH-side cost of enqueuing a VEO function-call
	// command (on top of the IPC chain): command marshalling, context lock,
	// in-VEOS request handling.
	VEOCallSubmit simtime.Duration
	// VEOCallDispatchVE is the VE-side cost of popping a command, looking up
	// the symbol and setting up the C calling convention.
	VEOCallDispatchVE simtime.Duration
	// VEOCmdPollInterval is how often the VE-side VEO worker polls its
	// command queue.
	VEOCmdPollInterval simtime.Duration
	// VEOResultPollInterval is how often a VH context waiting on a call
	// result re-checks the completion queue.
	VEOResultPollInterval simtime.Duration

	// --- VE-initiated communication (user DMA, LHM/SHM) ---------------------

	// UserDMAAPISetup is the VE-side ve_dma_post_wait API overhead per
	// transfer (descriptor build, register writes, completion poll loop).
	UserDMAAPISetup simtime.Duration
	// UserDMAHWLatency is the raw descriptor-to-first-byte hardware latency
	// of the per-core user DMA engine.
	UserDMAHWLatency simtime.Duration
	// UserDMAWriteRate / UserDMAReadRate are sustained user-DMA payload
	// rates (bytes/s): write = VE→VH, read = VH→VE, matching Table IV's
	// 11.1 and 10.6 GiB/s.
	UserDMAWriteRate float64
	UserDMAReadRate  float64
	// UserDMAMaxDescriptor is the largest contiguous block one descriptor
	// moves; larger transfers are split and pipelined.
	UserDMAMaxDescriptor units.Bytes

	// SHMFirstWord is the cost of the first SHM (store host memory)
	// instruction of a burst: posted write setup through the DMAATB path.
	SHMFirstWord simtime.Duration
	// SHMPerWord is the pipelined cost of each subsequent 8-byte SHM store.
	SHMPerWord simtime.Duration
	// LHMPerWord is the cost of one LHM (load host memory) 8-byte load; it is
	// a full round trip and does not pipeline.
	LHMPerWord simtime.Duration

	// DMAATBRegister is the cost of registering a memory segment in the
	// DMAATB (VEHVA mapping); paid once per segment during setup.
	DMAATBRegister simtime.Duration

	// --- HAM-Offload framework costs -----------------------------------------

	// HAMHostOverhead is the per-offload host-side framework cost: functor
	// encoding, slot management, handler-address→key translation.
	HAMHostOverhead simtime.Duration
	// HAMVEOverhead is the per-message VE-side framework cost: key→address
	// translation, functor decode, result encode.
	HAMVEOverhead simtime.Duration
	// HAMHostPollInterval is the host's re-check gap while waiting on a
	// local result flag in the DMA protocol (the flag lives in VH memory).
	HAMHostPollInterval simtime.Duration
	// HAMVEPollInterval is the VE runtime's gap between receive-flag polls:
	// local HBM reads in the VEO protocol, LHM round trips in the DMA
	// protocol.
	HAMVEPollInterval simtime.Duration

	// --- Process / library management ---------------------------------------

	// ProcCreate is the cost of veo_proc_create: spawning the VE process,
	// loading the statically linked loader, initialising VEOS structures.
	ProcCreate simtime.Duration
	// LoadLibraryBase and LoadLibraryPerKiB approximate dlopen on the VE.
	LoadLibraryBase   simtime.Duration
	LoadLibraryPerKiB simtime.Duration
	// GetSym is the cost of one symbol lookup.
	GetSym simtime.Duration
	// AllocMem is the VH-side cost of a veo_alloc_mem round trip (an IPC to
	// VEOS plus VE-side allocator work).
	AllocMem simtime.Duration

	// --- Host-side memory ----------------------------------------------------

	// HostPageSize is the VH page size used for DMA translations. 2 MiB huge
	// pages by default (the paper: "it is important to use huge pages of at
	// least 2 MiB"); the ablation switches to 4 KiB.
	HostPageSize units.Bytes
	// HostMemCopyRate is the VH local memcpy rate (bytes/s), used when the
	// DMA protocol touches message buffers in local shared memory.
	HostMemCopyRate float64
	// VEMemCopyRate is the VE local HBM copy rate (bytes/s).
	VEMemCopyRate float64

	// Tracer, when non-nil, is the observability handle every component on
	// this machine shares: timeline spans from the instrumented components
	// (VEO calls, privileged/user DMA, LHM/SHM ops, HAM protocol steps) for
	// Chrome-trace export, latency breakdowns and the per-node metrics
	// registries, plus the HAM runtimes' time series, SLO latency accounting
	// and (trace.Config.Flows) causal offload flows. Nil disables recording
	// at zero cost.
	Tracer *trace.Tracer

	// Faults, when non-nil, is the deterministic fault injector consulted at
	// the substrate hook points (privileged/user DMA, LHM/SHM, VEOS daemon
	// entry, PCIe links). Nil — the default — injects nothing at zero cost,
	// exactly like Tracer. Substrate rules key their Node field to the VE
	// card id.
	Faults *faults.Injector
}

// DefaultTiming returns the calibrated constants reproducing the paper's
// measurements on the A300-8 (VEOS 1.3.2-4dma, huge pages enabled).
func DefaultTiming() Timing {
	return Timing{
		PCIeLatency:    600 * simtime.Nanosecond, // 2 × 600 ns ≈ 1.2 µs RTT
		PCIeRawRate:    14.7 * float64(units.GiB),
		PCIeMaxPayload: 256 * units.B,
		PCIeTLPHeader:  26 * units.B, // 256/282 ≈ 91 % efficiency → 13.4 GiB/s
		UPILatency:     300 * simtime.Nanosecond,

		VEOLibOverhead:       2 * simtime.Microsecond,
		IPCUserVEOS:          18 * simtime.Microsecond,
		DriverHop:            20 * simtime.Microsecond,
		PrivDMAKick:          20 * simtime.Microsecond,
		PrivDMAReadExtra:     128 * simtime.Microsecond,
		PrivTranslatePerPage: 600 * simtime.Nanosecond,
		BulkTranslateFixed:   20 * simtime.Microsecond,
		BulkTranslatePerPage: 450 * simtime.Nanosecond,
		PrivDMAWriteRate:     9.94 * float64(units.GiB),
		PrivDMAReadRate:      10.45 * float64(units.GiB),

		VEOCallSubmit:         8 * simtime.Microsecond,
		VEOCallDispatchVE:     6 * simtime.Microsecond,
		VEOCmdPollInterval:    2 * simtime.Microsecond,
		VEOResultPollInterval: 4 * simtime.Microsecond,

		UserDMAAPISetup:      3400 * simtime.Nanosecond,
		UserDMAHWLatency:     2000 * simtime.Nanosecond,
		UserDMAWriteRate:     11.16 * float64(units.GiB),
		UserDMAReadRate:      10.66 * float64(units.GiB),
		UserDMAMaxDescriptor: 64 * units.MiB,

		SHMFirstWord: 540 * simtime.Nanosecond,
		SHMPerWord:   124 * simtime.Nanosecond,
		LHMPerWord:   700 * simtime.Nanosecond,

		DMAATBRegister: 25 * simtime.Microsecond,

		HAMHostOverhead:     500 * simtime.Nanosecond,
		HAMVEOverhead:       700 * simtime.Nanosecond,
		HAMHostPollInterval: 200 * simtime.Nanosecond,
		HAMVEPollInterval:   150 * simtime.Nanosecond,

		ProcCreate:        900 * simtime.Millisecond,
		LoadLibraryBase:   15 * simtime.Millisecond,
		LoadLibraryPerKiB: 2 * simtime.Microsecond,
		GetSym:            30 * simtime.Microsecond,
		AllocMem:          60 * simtime.Microsecond,

		HostPageSize:    2 * units.MiB,
		HostMemCopyRate: 12 * float64(units.GiB),
		VEMemCopyRate:   100 * float64(units.GiB),
	}
}

// Validate rejects non-physical parameter combinations early.
func (t Timing) Validate() error {
	checks := []struct {
		ok  bool
		msg string
	}{
		{t.PCIeLatency > 0, "PCIeLatency must be positive"},
		{t.PCIeRawRate >= 1, "PCIeRawRate must be at least 1 B/s"},
		{t.PCIeMaxPayload > 0, "PCIeMaxPayload must be positive"},
		{t.PCIeTLPHeader >= 0, "PCIeTLPHeader must be non-negative"},
		{t.PrivDMAWriteRate >= 1 && t.PrivDMAReadRate >= 1, "privileged DMA rates must be at least 1 B/s"},
		{t.UserDMAWriteRate >= 1 && t.UserDMAReadRate >= 1, "user DMA rates must be at least 1 B/s"},
		{t.UserDMAMaxDescriptor > 0, "UserDMAMaxDescriptor must be positive"},
		{t.SHMPerWord > 0 && t.LHMPerWord > 0, "SHM/LHM word costs must be positive"},
		{t.HostPageSize > 0, "HostPageSize must be positive"},
		{t.HostMemCopyRate >= 1 && t.VEMemCopyRate >= 1, "local copy rates must be at least 1 B/s"},
		{t.VEOCmdPollInterval > 0 && t.VEOResultPollInterval > 0, "poll intervals must be positive"},
	}
	for _, c := range checks {
		if !c.ok {
			return fmt.Errorf("topology: invalid timing: %s", c.msg)
		}
	}
	return nil
}
