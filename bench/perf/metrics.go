package main

import (
	"slices"
	"strings"
)

// This file is the ledger's declaration: the workloads, the end-to-end
// metrics with their regression bounds, and the per-layer metrics with the
// end-to-end metric and workload each is expected to move. BENCHMARK.json at
// the repository root repeats the names, units and directions in the schema
// the benchmark driver reads; perf_test.go keeps the two identical.

const (
	wSyncDMA   = "sync-dma"
	wDataVEO   = "data-veo"
	wPipeBatch = "pipe-batch"
	wServePeak = "serve-peak"
)

// runSeconds is how long the benchmark driver asks one run to measure for
// (BENCHMARK.json's run_seconds): about five rounds.
const runSeconds = 15

// workload is one set of inputs. ops is the fixed op count of one round,
// sized so a round is about 3 s of host time on the 2-core sandbox; run
// executes one round (set-up and timed region) on a fresh machine.
type workload struct {
	name string
	why  string
	ops  int
	veo  bool // HAM-Offload over the VEO protocol (else the DMA protocol)
	run  func(*round) error
}

var workloads = []workload{
	{wSyncDMA, "closed loop, 1 client, 1 VE, DMA protocol: back-to-back small sync offloads, the paper's Fig. 9 path; only simtime parks, dmab flag/poll/fetch/result and the ham codecs work",
		128_000, false, runSyncDMA},
	{wDataVEO, "closed loop, 1 client, 1 VE, VEO protocol: Put, kernel over the buffer, Get, 4 KiB to 16 MiB; the only workload on veob/veo/privileged DMA and the only one where bytes dominate",
		640, true, runDataVEO},
	{wPipeBatch, "closed loop, bulk-synchronous waves of 512 tasks over 8 VEs in batch frames of 8: scheduler placement, batch framing and future harvesting work; per-message flag cost is amortised",
		384_000, false, runPipeBatch},
	{wServePeak, "open loop on an absolute diurnal schedule with bursts into the 8-VE gateway while one VE runs 4x slow: admission, quotas, stealing, Nagle framing and idle-VE polling matter only here",
		360_000, false, runServePeak},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metric is a declared metric: what a run must emit under this name.
type metric struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed worsening as a share of the base median
}

// Units name their clock: sim_* is simulated time (the modelled hardware,
// exact and repeatable), everything else is host time or a host count.
var endToEnd = []metric{
	{"sim_lat_p50_us", "sim_us", "lower", 0.02},
	{"sim_lat_p99_us", "sim_us", "lower", 0.04},
	{"sim_lat_mean_us", "sim_us", "lower", 0.01},
	{"sim_ops_per_s", "ops/sim_s", "higher", 0.01},
	{"wall_ops_per_s", "ops/s", "higher", 0.25},
	{"allocs_per_op", "count", "lower", 0.01},
	{"alloc_bytes_per_op", "B", "lower", 0.02},
	{"setup_s", "s", "lower", 0.25},
}

// move says which end-to-end metric, on which workload, a layer metric is
// expected to move when its layer changes.
type move struct{ Metric, Workload string }

// layerMetric is a per-layer metric. Source is how it is measured:
//
//	C  counts taken around the timed region; exact, identical on every round
//	T  simulated-clock spans of the traced round, from the program's own
//	   trace.Tracer registries, divided by ops; exact
//	W  driver-side host-clock spans of the traced round
//	D  isolated layer drive: a loop over one package's public API, median of 3
//
// On lists the workloads it is measured on (nil: all); elsewhere it reads 0.
type layerMetric struct {
	metric
	Layer  string
	Source string
	On     []string
	Moves  []move
}

var (
	allWorkloads = []string{wSyncDMA, wDataVEO, wPipeBatch, wServePeak}
	dmaWorkloads = []string{wSyncDMA, wPipeBatch, wServePeak}
	onDataVEO    = []string{wDataVEO}
	onPipeBatch  = []string{wPipeBatch}
	onServePeak  = []string{wServePeak}
)

// moves pairs every listed end-to-end metric with every listed workload.
func moves(metrics []string, on []string) []move {
	var out []move
	for _, m := range metrics {
		for _, w := range on {
			out = append(out, move{m, w})
		}
	}
	return out
}

func layer(name, unit, better, source string, on []string, mv []move) layerMetric {
	module, _, _ := strings.Cut(name, ".")
	return layerMetric{metric: metric{Name: name, Unit: unit, Better: better},
		Layer: module, Source: source, On: on, Moves: mv}
}

var (
	// A faster engine moves host throughput everywhere and must never move a
	// simulated metric.
	mvEngine = moves([]string{"wall_ops_per_s"}, allWorkloads)
	mvCodec  = moves([]string{"wall_ops_per_s", "allocs_per_op"}, []string{wSyncDMA, wPipeBatch})
	mvMem    = moves([]string{"wall_ops_per_s", "alloc_bytes_per_op"}, onDataVEO)
	// PCIe and DMA cost is on the blocking path of a closed loop with nothing
	// overlapped; under serve-peak's queueing it is predicted invisible.
	mvWire   = moves([]string{"sim_lat_p50_us", "sim_lat_mean_us"}, []string{wSyncDMA, wDataVEO})
	mvVEOSim = moves([]string{"sim_lat_p50_us", "sim_lat_p99_us", "sim_lat_mean_us", "sim_ops_per_s"}, onDataVEO)
	mvVEOAll = moves([]string{"wall_ops_per_s", "alloc_bytes_per_op"}, onDataVEO)
	// dmab phases move sync-dma latency one-for-one; on pipe-batch they are
	// amortised by core.msgs_per_frame and move throughput about 1/8 as much.
	mvDMAB = append(moves([]string{"sim_lat_p50_us", "sim_lat_mean_us"}, []string{wSyncDMA}),
		moves([]string{"sim_ops_per_s"}, []string{wPipeBatch, wServePeak})...)
	mvVEOB     = moves([]string{"sim_lat_p50_us", "sim_lat_mean_us"}, onDataVEO)
	mvCoreSim  = moves([]string{"sim_ops_per_s"}, []string{wPipeBatch, wServePeak})
	mvCoreWall = moves([]string{"allocs_per_op", "wall_ops_per_s"}, []string{wSyncDMA, wDataVEO})
	mvSched    = moves([]string{"sim_ops_per_s", "sim_lat_p99_us"}, onPipeBatch)
	mvSchedW   = moves([]string{"wall_ops_per_s"}, onPipeBatch)
	mvGateway  = moves([]string{"sim_lat_p99_us", "sim_lat_mean_us", "sim_ops_per_s"}, onServePeak)
	mvGatewayW = moves([]string{"wall_ops_per_s", "allocs_per_op"}, onServePeak)
	mvFaults   = moves([]string{"wall_ops_per_s"}, onServePeak)
	mvSetup    = moves([]string{"setup_s"}, allWorkloads)
)

var perLayer = []layerMetric{
	// simtime: the discrete-event engine under everything.
	layer("simtime.events_per_op", "count", "lower", "C", nil, mvEngine),
	layer("simtime.max_queue_len", "count", "lower", "C", nil, mvEngine),
	layer("simtime.wall_ns_per_event", "ns", "lower", "C", nil, mvEngine),
	layer("simtime.drive_ns_per_park", "ns", "lower", "D", nil, mvEngine),
	layer("simtime.drive_ns_per_park_64", "ns", "lower", "D", nil, mvEngine),
	layer("simtime.drive_ns_per_event_fire", "ns", "lower", "D", nil, mvEngine),

	// ham, slots: message codec and flag words.
	layer("ham.drive_ns_per_roundtrip", "ns", "lower", "D", nil, mvCodec),
	layer("ham.drive_allocs_per_roundtrip", "count", "lower", "D", nil, mvCodec),
	layer("slots.drive_ns_per_flag", "ns", "lower", "D", nil, mvCodec),

	// mem: sparse memories behind every simulated transfer.
	layer("mem.drive_ns_per_alloc_free", "ns", "lower", "D", nil, mvMem),
	layer("mem.drive_copy_gib_s", "GiB/s", "higher", "D", nil, mvMem),

	// pcie, dma: the modelled interconnect.
	layer("pcie.sim_wire_us_per_op", "sim_us", "lower", "T", nil, mvWire),
	layer("pcie.sim_lhm_us_per_op", "sim_us", "lower", "T", dmaWorkloads, mvWire),
	layer("pcie.sim_shm_us_per_op", "sim_us", "lower", "T", dmaWorkloads, mvWire),
	layer("dma.sim_user_dma_us_per_op", "sim_us", "lower", "T", dmaWorkloads, mvWire),
	layer("dma.sim_priv_dma_us_per_op", "sim_us", "lower", "T", onDataVEO, mvWire),
	layer("dma.lhm_spans_per_op", "count", "lower", "T", dmaWorkloads, mvEngine),

	// veo: bulk data movement, data-veo only.
	layer("veo.sim_write_mem_us_per_op", "sim_us", "lower", "T", onDataVEO, mvVEOSim),
	layer("veo.sim_read_mem_us_per_op", "sim_us", "lower", "T", onDataVEO, mvVEOSim),
	layer("veo.sim_put_us_4k", "sim_us", "lower", "C", onDataVEO, mvVEOSim),
	layer("veo.sim_put_us_64k", "sim_us", "lower", "C", onDataVEO, mvVEOSim),
	layer("veo.sim_put_us_1m", "sim_us", "lower", "C", onDataVEO, mvVEOSim),
	layer("veo.sim_put_us_16m", "sim_us", "lower", "C", onDataVEO, mvVEOSim),
	layer("veo.sim_get_us_4k", "sim_us", "lower", "C", onDataVEO, mvVEOSim),
	layer("veo.sim_get_us_64k", "sim_us", "lower", "C", onDataVEO, mvVEOSim),
	layer("veo.sim_get_us_1m", "sim_us", "lower", "C", onDataVEO, mvVEOSim),
	layer("veo.sim_get_us_16m", "sim_us", "lower", "C", onDataVEO, mvVEOSim),
	layer("veo.sim_put_gib_s_16m", "GiB/sim_s", "higher", "C", onDataVEO, mvVEOSim),
	layer("veo.sim_get_gib_s_16m", "GiB/sim_s", "higher", "C", onDataVEO, mvVEOSim),
	layer("veo.wall_put_ns_per_kib", "ns", "lower", "W", onDataVEO, mvVEOAll),
	layer("veo.wall_get_ns_per_kib", "ns", "lower", "W", onDataVEO, mvVEOAll),

	// dmab / veob: the two slot-ring protocols, by trace phase.
	layer("dmab.sim_call_us_per_op", "sim_us", "lower", "T", dmaWorkloads, mvDMAB),
	layer("dmab.sim_poll_us_per_op", "sim_us", "lower", "T", dmaWorkloads, mvDMAB),
	layer("dmab.sim_fetch_us_per_op", "sim_us", "lower", "T", dmaWorkloads, mvDMAB),
	layer("dmab.sim_result_us_per_op", "sim_us", "lower", "T", dmaWorkloads, mvDMAB),
	layer("dmab.sim_wait_us_per_op", "sim_us", "lower", "T", dmaWorkloads, mvDMAB),
	layer("veob.sim_call_us_per_op", "sim_us", "lower", "T", onDataVEO, mvVEOB),
	layer("veob.sim_poll_us_per_op", "sim_us", "lower", "T", onDataVEO, mvVEOB),
	layer("veob.sim_fetch_us_per_op", "sim_us", "lower", "T", onDataVEO, mvVEOB),
	layer("veob.sim_result_us_per_op", "sim_us", "lower", "T", onDataVEO, mvVEOB),
	layer("veob.sim_wait_us_per_op", "sim_us", "lower", "T", onDataVEO, mvVEOB),

	// core: the runtime between the API and the backends.
	layer("core.sim_offload_us_per_msg", "sim_us", "lower", "T", nil, mvCoreSim),
	layer("core.sim_execute_us_per_msg", "sim_us", "lower", "T", nil, mvCoreSim),
	layer("core.msgs_per_frame", "count", "higher", "T", nil, mvCoreSim),
	layer("core.frames_per_op", "count", "lower", "T", nil, mvCoreSim),
	layer("core.retries_per_kop", "count", "lower", "T", nil, mvCoreSim),
	layer("core.wall_sync_ns_per_op", "ns", "lower", "W", []string{wSyncDMA, wDataVEO}, mvCoreWall),

	// sched: placement and harvesting, pipe-batch only.
	layer("sched.wall_map_ns_per_op", "ns", "lower", "W", onPipeBatch, mvSchedW),
	layer("sched.imbalance", "ratio", "lower", "T", []string{wPipeBatch, wServePeak}, mvSched),
	layer("sched.drive_ns_per_pick", "ns", "lower", "D", nil, mvSchedW),
	layer("health.drive_ns_per_observe", "ns", "lower", "D", nil, mvSchedW),

	// gateway: the serving front door, serve-peak only.
	layer("gateway.sim_lc_p50_us", "sim_us", "lower", "C", onServePeak, mvGateway),
	layer("gateway.sim_lc_p99_us", "sim_us", "lower", "C", onServePeak, mvGateway),
	layer("gateway.sim_lc_p999_us", "sim_us", "lower", "C", onServePeak, mvGateway),
	layer("gateway.sim_batch_p99_us", "sim_us", "lower", "C", onServePeak, mvGateway),
	layer("gateway.sim_be_p99_us", "sim_us", "lower", "C", onServePeak, mvGateway),
	layer("gateway.sim_lc_p99_us_trough", "sim_us", "lower", "C", onServePeak, mvGateway),
	layer("gateway.sim_lc_p99_us_peak", "sim_us", "lower", "C", onServePeak, mvGateway),
	layer("gateway.sim_hold_us_mean", "sim_us", "lower", "T", onServePeak, mvGateway),
	layer("gateway.slo_miss_share", "ratio", "lower", "C", onServePeak, mvGateway),
	layer("gateway.reject_share_quota", "ratio", "lower", "C", onServePeak, mvGateway),
	layer("gateway.reject_share_overload", "ratio", "lower", "C", onServePeak, mvGateway),
	layer("gateway.steals_per_kop", "count", "lower", "C", onServePeak, mvGateway),
	layer("gateway.max_queue", "count", "lower", "C", onServePeak, mvGateway),
	layer("gateway.gen_lag_p99_us", "sim_us", "lower", "C", onServePeak, mvGateway),
	layer("gateway.wall_submit_ns_per_op", "ns", "lower", "W", onServePeak, mvGatewayW),
	layer("gateway.wall_poll_ns_per_op", "ns", "lower", "W", onServePeak, mvGatewayW),
	layer("gateway.wall_drain_ms", "ms", "lower", "W", onServePeak, mvGatewayW),

	// faults: the injector consulted on every transfer; armed on serve-peak only.
	layer("faults.drive_ns_per_check_nil", "ns", "lower", "D", nil, mvFaults),
	layer("faults.drive_ns_per_check_armed", "ns", "lower", "D", nil, mvFaults),

	// trace: the price of the T and W columns; predicted to move nothing.
	layer("trace.overhead_pct", "%", "lower", "W", nil, nil),
	layer("trace.spans_per_op", "count", "lower", "T", nil, nil),

	// machine: what set-up is made of.
	layer("machine.wall_new_ms", "ms", "lower", "W", nil, mvSetup),
	layer("machine.wall_connect_ms", "ms", "lower", "W", nil, mvSetup),
	layer("machine.sim_connect_ms", "sim_ms", "lower", "C", nil, mvSetup),
	layer("machine.peak_sys_mib", "MiB", "lower", "C", nil, mvSetup),

	// calib: accuracy against the paper, stated beside the simulated numbers.
	layer("calib.empty_offload_us", "sim_us", "lower", "C", nil, nil),
	layer("calib.empty_offload_err_pct", "%", "lower", "C", nil, nil),
}

func measuredOn(l *layerMetric, workload string) bool {
	return l.On == nil || slices.Contains(l.On, workload)
}

// declared lists the metrics a run must emit: the end-to-end ones with
// tracing off, the per-layer ones with it on.
func declared(traced int) []metric {
	if traced == 0 {
		return endToEnd
	}
	out := make([]metric, len(perLayer))
	for i := range perLayer {
		out[i] = perLayer[i].metric
	}
	return out
}
