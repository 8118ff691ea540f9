package harness

import (
	"fmt"
	"strings"

	"affinityalloc/internal/core"
	"affinityalloc/internal/stats"
	"affinityalloc/internal/sys"
	"affinityalloc/internal/workloads"
)

// WorkloadNames lists every workload WorkloadExperiment runs by name:
// Fig 12's ten benchmarks, then skew, the two-phase hotspot behind the
// online-reallocation tests, which runs on its own but is not in the
// Fig-12 suite. It builds no graph: the graph workloads are named
// without one.
func WorkloadNames(opt Options) []string {
	var names []string
	for _, w := range fig12Suite(opt, graphSuite(opt, nil, nil, nil)) {
		names = append(names, w.Name())
	}
	return append(names, workloads.DefaultSkew().Name())
}

// lookupWorkload builds the workload called name at opt's scale. It
// builds one group of workloads at a time, cheapest first, and stops at
// the group that holds the name, so looking up an affine or pointer
// workload never generates a graph.
func lookupWorkload(opt Options, name string) (workloads.Workload, error) {
	groups := []func() []workloads.Workload{
		func() []workloads.Workload { return affineWorkloads(opt, 1) },
		func() []workloads.Workload { return pointerWorkloads(opt) },
		func() []workloads.Workload { return []workloads.Workload{workloads.DefaultSkew()} },
		func() []workloads.Workload { return graphWorkloads(opt) },
	}
	for _, group := range groups {
		for _, w := range group() {
			if w.Name() == name {
				return w, nil
			}
		}
	}
	return nil, fmt.Errorf("unknown workload %q (try -list)", name)
}

// parseModes resolves a -mode value: "all" (or empty) selects the three
// presentation-order configurations, anything else one sys.ParseMode
// name.
func parseModes(v string) ([]sys.Mode, error) {
	if v == "" || strings.EqualFold(v, "all") {
		return sys.Modes[:], nil
	}
	m, err := sys.ParseMode(v)
	if err != nil {
		return nil, err
	}
	return []sys.Mode{m}, nil
}

// WorkloadExperiment is the experiment behind `affsim -workload`: the
// workload called name under the configurations mode selects ("all" or
// one sys.ParseMode name), every cell on the Table-2 system with bank
// policy pcfg and labeled "<workload>/<mode>". An unknown name or mode
// fails here, before anything runs.
func WorkloadExperiment(opt Options, name, mode string, pcfg core.PolicyConfig) (Experiment, error) {
	modes, err := parseModes(mode)
	if err != nil {
		return Experiment{}, err
	}
	w, err := lookupWorkload(opt, name)
	if err != nil {
		return Experiment{}, err
	}
	return Experiment{ID: "workload", Title: name, Run: func(opt Options) (*Figure, error) {
		return workloadFigure(opt, w, modes, pcfg)
	}}, nil
}

// workloadFigure runs w under each of modes and renders one row per
// mode. A failed mode renders a FAILED row and its error comes back with
// the figure. With every mode, speedup is In-Core cycles over the row's
// (n/a when In-Core failed); a single mode's speedup is its own, 1.
func workloadFigure(opt Options, w workloads.Workload, modes []sys.Mode, pcfg core.PolicyConfig) (*Figure, error) {
	cfg := baseConfig(opt, pcfg)
	cells := make([]cell, len(modes))
	base := 0
	for i, mode := range modes {
		cells[i] = cell{fmt.Sprintf("%s/%v", w.Name(), mode), cfg, w, mode}
		if mode == sys.InCore {
			base = i
		}
	}
	rs, err := runCells(opt, cells)
	errs := cellErrors(len(cells), err)

	speedupCol := "speedup.vs.InCore"
	if len(modes) == 1 {
		speedupCol = "speedup"
	}
	tbl := stats.NewTable(fmt.Sprintf("%s at scale=%v (policy %v)", w.Name(), opt.Scale, pcfg.Policy),
		"config", "cycles", speedupCol, "hops.data", "hops.control", "hops.offload", "l3miss", "noc.util", "energy")
	for i, mode := range modes {
		if errs[i] != nil {
			tbl.AddRow(mode.String(), "FAILED", "-", "-", "-", "-", "-", "-", "-")
			continue
		}
		m := rs[i].Metrics
		var sp interface{} = "n/a"
		if errs[base] == nil {
			sp = float64(rs[base].Metrics.Cycles) / float64(m.Cycles)
		}
		d, c, o := m.DataHops()
		tbl.AddRow(mode.String(), uint64(m.Cycles), sp, d, c, o, m.L3MissRate(), m.NoCUtil(), m.EnergyTotal())
	}
	return &Figure{ID: "workload", Title: w.Name(), Tables: []*stats.Table{tbl}}, err
}
