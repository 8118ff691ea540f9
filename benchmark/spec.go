package main

import "affinityalloc/internal/sys"

// metricSpec names one reported number. BENCHMARK.json repeats these
// tables for the driver; smoke_test.go keeps the two in step.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline by which an end-to-end metric
	// may worsen before a change counts as a regression. The driver also
	// holds the spread of ten runs on ten seeds to it, so it is sized to
	// the seed-to-seed spread README.md records, not only to host noise.
	// Per-layer metrics carry none.
	Bound float64
	// Exact marks a number that is modelled, not timed: it must repeat
	// bit for bit between two runs of the same code and seed.
	Exact bool
}

// The four workloads, in the order they run.
const (
	wlSimAffine    = "sim_affine"
	wlSimIrregular = "sim_irregular"
	wlFigsTiny     = "figs_tiny"
	wlDaemonPlace  = "daemon_place"
)

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadSpecs = []workloadSpec{
	{wlSimAffine, "Four Rodinia stencils at default scale: few huge allocations, host time is stream issue, cache access and Server.Reserve; construction is about 2% of a pass."},
	{wlSimIrregular, "Three graph and three pointer benchmarks at default scale: tens of thousands of AllocNear calls, chase streams and remote ops, miss- and hop-dominated single-line accesses."},
	{wlFigsTiny, "fig4, fig12 and fig13 through harness.Experiment.Run at tiny scale, as CI and the goldens run them: cells last 10-250 ms, so sys.New and GC are a large share."},
	{wlDaemonPlace, "One closed-loop client driving a seeded tenant stream at an in-process affinityd with a journal, then recovery of that journal: allocator, wire and journal do all the work, cache and NoC none."},
}

// affineBenches and irregularBenches split harness.AllWorkloads between
// the two simulator workloads by Workload.Name.
var (
	affineBenches    = []string{"pathfinder", "hotspot", "srad", "hotspot3D"}
	irregularBenches = []string{"pr", "bfs", "sssp", "link_list", "hash_join", "bin_tree"}
	figIDs           = []string{"fig4", "fig12", "fig13"}
)

// notApplicable is what the driver's line carries for an end-to-end
// metric the workload does not own and that is not a time (simulated
// cycles on the daemon, placements on the simulator); see printJSON.
const notApplicable = 1.0

// paperAffSpeedup is the paper's Aff-Alloc over Near-L3 geomean (§7,
// Fig 12) — the one reference value the repository holds.
const paperAffSpeedup = 2.26

// endToEnd lists the metrics a user of the simulator or the daemon
// would see, measured with tracing off. failed_frac, the tenth, is
// printed from the attempted/failed counts and is not listed for the
// driver because it reads 0 on a healthy run.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.24},
	{Name: "sim_cycles_per_s", Unit: "1/s", Better: "higher", Bound: 0.24},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "aff_speedup_geomean", Unit: "x", Better: "higher", Bound: 0.15, Exact: true},
	{Name: "placements_per_s", Unit: "1/s", Better: "higher", Bound: 0.24},
	{Name: "batch_p50_ms", Unit: "ms", Better: "lower", Bound: 0.24},
	{Name: "batch_p99_ms", Unit: "ms", Better: "lower", Bound: 0.24},
	{Name: "recover_s", Unit: "s", Better: "lower", Bound: 0.24},
}

// perLayer lists the metrics of single layers, from the traced run. A
// workload that does not exercise a layer reports 0 for it.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	ms := []metricSpec{
		{Name: "sys.new_ms", Unit: "ms", Better: "lower"},
		{Name: "sys.new_mb", Unit: "MB", Better: "lower"},
		{Name: "sys.new_share", Unit: "frac", Better: "lower"},
		{Name: "harness.cells", Unit: "count", Better: "lower", Exact: true},
		{Name: "harness.cell_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "harness.cell_ms_max", Unit: "ms", Better: "lower"},
		{Name: "harness.parallel_speedup", Unit: "x", Better: "higher"},
	}
	for _, id := range figIDs {
		ms = append(ms, metricSpec{Name: "harness.sim_cycles_per_s." + id, Unit: "1/s", Better: "higher"})
	}
	for _, b := range append(append([]string{}, affineBenches...), irregularBenches...) {
		ms = append(ms, metricSpec{Name: "workloads.ns_per_event." + b, Unit: "ns", Better: "lower"})
	}
	for _, m := range sys.Modes {
		ms = append(ms, metricSpec{Name: "workloads.run_share." + m.String(), Unit: "frac", Better: "lower"})
	}
	return append(ms,
		metricSpec{Name: "stream.affine_ns_per_elem", Unit: "ns", Better: "lower"},
		metricSpec{Name: "stream.chase_ns_per_visit", Unit: "ns", Better: "lower"},
		metricSpec{Name: "stream.remote_op_ns", Unit: "ns", Better: "lower"},
		metricSpec{Name: "cache.access_ns.stream", Unit: "ns", Better: "lower"},
		metricSpec{Name: "cache.access_ns.random", Unit: "ns", Better: "lower"},
		metricSpec{Name: "cache.l3_accesses", Unit: "count", Better: "lower", Exact: true},
		metricSpec{Name: "cache.l3_miss_rate", Unit: "frac", Better: "lower", Exact: true},
		metricSpec{Name: "cache.dram_accesses", Unit: "count", Better: "lower", Exact: true},
		metricSpec{Name: "noc.send_ns", Unit: "ns", Better: "lower"},
		metricSpec{Name: "noc.flit_hops", Unit: "count", Better: "lower", Exact: true},
		metricSpec{Name: "noc.util", Unit: "frac", Better: "lower", Exact: true},
		metricSpec{Name: "engine.reserve_ns.idle", Unit: "ns", Better: "lower"},
		metricSpec{Name: "engine.reserve_ns.backlog", Unit: "ns", Better: "lower"},
		metricSpec{Name: "core.replay_us_per_placement", Unit: "us", Better: "lower"},
		metricSpec{Name: "core.replay_growth", Unit: "x", Better: "lower"},
		metricSpec{Name: "core.calls_affine", Unit: "count", Better: "lower", Exact: true},
		metricSpec{Name: "core.calls_near", Unit: "count", Better: "lower", Exact: true},
		metricSpec{Name: "core.calls_free", Unit: "count", Better: "lower", Exact: true},
		metricSpec{Name: "affinityd.register_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "affinityd.alloc_batch_us", Unit: "us", Better: "lower"},
		metricSpec{Name: "affinityd.free_batch_us", Unit: "us", Better: "lower"},
		metricSpec{Name: "affinityd.server_place_p50_us", Unit: "us", Better: "lower"},
		metricSpec{Name: "affinityd.server_place_p99_us", Unit: "us", Better: "lower"},
		metricSpec{Name: "affinityd.wire_share", Unit: "frac", Better: "lower"},
		metricSpec{Name: "affinityd.journal_share", Unit: "frac", Better: "lower"},
		metricSpec{Name: "affinityd.rate_decay", Unit: "x", Better: "higher"},
		metricSpec{Name: "affinityd.journal_bytes_per_placement", Unit: "B", Better: "lower", Exact: true},
		metricSpec{Name: "affinityd.recover_us_per_record", Unit: "us", Better: "lower"},
		metricSpec{Name: "affinityd.retries", Unit: "count", Better: "lower"},
		metricSpec{Name: "affinityd.heap_mb_end", Unit: "MB", Better: "lower"},
		metricSpec{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
		metricSpec{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "trace_overhead_frac", Unit: "frac", Better: "lower"},
	)
}
