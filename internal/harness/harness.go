// Package harness regenerates every table and figure of the paper's
// evaluation (§7): it assembles workloads at a chosen scale, runs them
// across configurations, normalizes exactly as the paper does, and
// renders paper-shaped text tables. DESIGN.md's experiment index maps
// each figure to its function here.
package harness

import (
	"fmt"
	"io"

	"affinityalloc/internal/core"
	"affinityalloc/internal/faults"
	"affinityalloc/internal/graph"
	"affinityalloc/internal/realloc"
	"affinityalloc/internal/stats"
	"affinityalloc/internal/sys"
	"affinityalloc/internal/trace"
	"affinityalloc/internal/workloads"
)

// Scale selects experiment sizing.
type Scale int

const (
	// Tiny runs in seconds; for tests and CI.
	Tiny Scale = iota
	// Default is the host-scaled sizing (minutes for the full suite).
	Default
	// Paper is the published Table-3/Table-4 sizing.
	Paper
)

func (s Scale) String() string {
	switch s {
	case Tiny:
		return "tiny"
	case Default:
		return "default"
	case Paper:
		return "paper"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// ParseScale converts a flag value.
func ParseScale(v string) (Scale, error) {
	switch v {
	case "tiny":
		return Tiny, nil
	case "default", "":
		return Default, nil
	case "paper":
		return Paper, nil
	}
	return 0, fmt.Errorf("harness: unknown scale %q (tiny|default|paper)", v)
}

// Options parameterizes a harness run.
type Options struct {
	Scale Scale
	Seed  int64
	// Jobs is the number of simulation cells run concurrently; <= 0
	// selects runtime.GOMAXPROCS(0). Figure output is byte-identical for
	// every value: cells are independent and results are collected in
	// serial order before rendering.
	Jobs int
	// Timing, when non-nil, records per-cell wall time and simulated
	// cycles (see CellTiming).
	Timing *Timing
	// Collect, when non-nil, records each cell's telemetry snapshot in
	// deterministic harness order (see Collector).
	Collect *Collector
	// Record, when non-nil, captures each cell's allocation events and
	// access summaries as an afftrace/v1 scenario (see trace.Collector).
	// Like Collect, slots are reserved before cells launch, so the
	// resulting trace is byte-identical for every Jobs value. Recording
	// is pure observation: it never changes cell results.
	Record *trace.Collector

	// Faults, when non-empty, degrades every cell's simulated machine
	// (dead banks/links, throttled DRAM; see faults.Spec). Results stay
	// deterministic for any Jobs value: each cell's system owns its own
	// injector.
	Faults faults.Spec
	// Realloc, when enabled, arms every cell's online reconciler (see
	// realloc.Config). Deterministic like Faults: each cell's system
	// owns its own reconciler, and the migration schedule depends only
	// on seed and config — never on Jobs.
	Realloc realloc.Config

	// limit, when set, is a shared pool bounding concurrent cells across
	// experiments (see ShareWorkers).
	limit chan struct{}
}

// Validate rejects option values every simulation cell would fail with
// (an out-of-range fault spec, a bad realloc config), so CLIs can
// report one named error up front instead of one failure per cell.
func (o Options) Validate() error {
	return baseConfig(o, core.DefaultPolicy()).Validate()
}

// Figure is one regenerated artifact.
type Figure struct {
	ID     string
	Title  string
	Tables []*stats.Table
	Notes  []string
}

// Render writes the figure to w.
func (f *Figure) Render(w io.Writer) {
	fmt.Fprintf(w, "### %s — %s\n\n", f.ID, f.Title)
	for _, t := range f.Tables {
		t.Render(w)
		fmt.Fprintln(w)
	}
	for _, n := range f.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Experiment is a registry entry.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) (*Figure, error)
}

// Experiments lists every regenerable artifact in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"fig4", "Impact of Affine Data Layout on Vec Add", Fig4},
		{"fig6", "Impact of Irregular Data Layout (chunked-CSR oracle)", Fig6},
		{"t2", "System and uarch parameters", Table2},
		{"t3", "Workload parameters", Table3},
		{"fig12", "Overall Performance and Traffic Reduction", Fig12},
		{"fig13", "Sensitivity on Irregular Layout Policies", Fig13},
		{"fig14", "Distribution of Atomic Stream in BFS-Push", Fig14},
		{"fig15", "Speedup of Affine Layout on Large Inputs", Fig15},
		{"fig16", "Speedup of Linked CSR on Large Graphs", Fig16},
		{"fig17", "BFS Iteration Characteristics", Fig17},
		{"fig18", "BFS Push vs Pull Timeline", Fig18},
		{"fig19", "Speedup vs Average Node Degree", Fig19},
		{"t4", "Real-world graph stand-ins", Table4},
		{"fig20", "Performance on Real-World Graph Stand-ins", Fig20},
	}
}

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// baseConfig is the Table-2 system with a given irregular policy (and the
// option's fault spec, when one is set).
func baseConfig(opt Options, pcfg core.PolicyConfig) sys.Config {
	cfg := sys.DefaultConfig()
	cfg.Seed = opt.Seed
	cfg.Policy = pcfg
	cfg.Faults = opt.Faults
	cfg.Realloc = opt.Realloc
	return cfg
}

// runModesAll runs every (workload × mode) pair as one flat batch of
// parallel cells and returns the per-workload mode maps in input order.
func runModesAll(opt Options, ws []workloads.Workload) ([]map[sys.Mode]workloads.Result, error) {
	cfg := baseConfig(opt, core.DefaultPolicy())
	cells := make([]cell, 0, len(ws)*len(sys.Modes))
	for _, w := range ws {
		for _, mode := range sys.Modes {
			cells = append(cells, cell{fmt.Sprintf("%s/%v", w.Name(), mode), cfg, w, mode})
		}
	}
	rs, err := runCells(opt, cells)
	if err != nil {
		return nil, err
	}
	out := make([]map[sys.Mode]workloads.Result, len(ws))
	for wi, w := range ws {
		m := make(map[sys.Mode]workloads.Result, len(sys.Modes))
		for mi, mode := range sys.Modes {
			m[mode] = rs[wi*len(sys.Modes)+mi]
		}
		// Functional cross-check: every configuration computed the same
		// result.
		base := m[sys.InCore].Checksum
		for _, mode := range sys.Modes {
			if m[mode].Checksum != base {
				return nil, fmt.Errorf("%s: %v checksum %x != In-Core %x", w.Name(), mode, m[mode].Checksum, base)
			}
		}
		out[wi] = m
	}
	return out, nil
}

// speedup returns base cycles / new cycles.
func speedup(newM, baseM workloads.Result) float64 {
	if newM.Metrics.Cycles == 0 {
		return 0
	}
	return float64(baseM.Metrics.Cycles) / float64(newM.Metrics.Cycles)
}

// energyEff returns the energy-efficiency ratio of new over base (equal
// work assumed).
func energyEff(newM, baseM workloads.Result) float64 {
	if newM.Metrics.EnergyTotal() == 0 {
		return 0
	}
	return baseM.Metrics.EnergyTotal() / newM.Metrics.EnergyTotal()
}

// trafficCols returns a run's data/control/offload flit-hops normalized
// to a baseline run's total.
func trafficCols(r workloads.Result, base workloads.Result) (d, c, o float64) {
	total := float64(base.Metrics.FlitHops)
	if total == 0 {
		return 0, 0, 0
	}
	dd, cc, oo := r.Metrics.DataHops()
	return float64(dd) / total, float64(cc) / total, float64(oo) / total
}

// geomeanColumn computes the geometric mean of a column extractor over
// rows.
func geomeanColumn(vals []float64) float64 { return stats.Geomean(vals) }

// sharedGraph builds the evaluation's main Kronecker graph at the given
// scale (Table 3: 128k nodes, 4M edges at paper scale).
func sharedGraph(opt Options) (*graph.Graph, *graph.Graph) {
	scale, deg := 14, 12
	switch opt.Scale {
	case Tiny:
		scale, deg = 11, 8
	case Paper:
		scale, deg = 17, 32
	}
	g := graph.Kronecker(scale, deg, 42+opt.Seed)
	return g, g.Transpose()
}

// weightedSharedGraph adds Table 3's uniform [1,255] weights.
func weightedSharedGraph(opt Options) *graph.Graph {
	g, _ := sharedGraph(opt)
	g.AddUniformWeights(1, 255, 42+opt.Seed)
	return g
}
