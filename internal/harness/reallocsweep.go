package harness

import (
	"fmt"

	"affinityalloc/internal/core"
	"affinityalloc/internal/faults"
	"affinityalloc/internal/realloc"
	"affinityalloc/internal/stats"
	"affinityalloc/internal/sys"
	"affinityalloc/internal/workloads"
)

// reallocKillAt returns the sweep's mid-run bank-kill cycle for a scale,
// chosen to land inside every sweep workload's run (BFS at tiny finishes
// around 6k cycles, skew around 12k; default-scale BFS around 33k).
func reallocKillAt(s Scale) uint64 {
	switch s {
	case Tiny:
		return 3000
	case Paper:
		return 50000
	}
	return 12000
}

// reallocSweepConfig returns the dynamic variant's reconciler config: the
// -realloc flag value when one was given, otherwise a per-scale default
// cadence (several epochs per run) with the package's cost/benefit knobs.
func reallocSweepConfig(opt Options) realloc.Config {
	if opt.Realloc.Enabled() {
		return opt.Realloc
	}
	epoch := uint64(6000)
	switch opt.Scale {
	case Tiny:
		epoch = 2000
	case Paper:
		epoch = 20000
	}
	return realloc.Config{Epoch: epoch}.WithDefaults()
}

// sweepSkew sizes the two-phase hotspot workload for a scale.
func sweepSkew(s Scale) workloads.Skew {
	w := workloads.DefaultSkew()
	switch s {
	case Default:
		w.Chunks, w.OpsPerPhase = 16, 18000
	case Paper:
		w.Chunks, w.OpsPerPhase = 24, 60000
	}
	return w
}

// ReallocSweep renders the static-vs-dynamic placement table behind
// `afftables -realloc-sweep`: each workload runs under Aff-Alloc with the
// reconciler off (static) and on (dynamic), on the clean machine and
// under a mid-run bank kill. The question it answers is whether closing
// the telemetry → placement loop pays: dynamic should recover a
// measurable fraction of a kill's damage by re-homing stranded-hot
// granules, while on the clean machine it must not distort a placement
// that is already good (migration traffic is modeled, not free).
//
// Like FaultsSweep, it is not in the Experiments registry (the default
// paper-shaped output stays byte-identical) and tolerates per-cell
// failures: failed cells render as FAILED(<reason>) and the error is
// returned so callers exit non-zero. Checksums are cross-checked between
// the static and dynamic runs of each cell pair — migration must never
// change results, only their timing.
func ReallocSweep(opt Options) (*Figure, error) {
	g, gt := sharedGraph(opt)
	ws := []workloads.Workload{
		sweepSkew(opt.Scale),
		workloads.BFS{G: g, GT: gt, Src: -1},
	}

	killAt := reallocKillAt(opt.Scale)
	type scenario struct {
		name string
		spec faults.Spec
	}
	scens := []scenario{
		{"clean", faults.Spec{}},
		{fmt.Sprintf("kill-bank=27@%d", killAt),
			faults.Spec{Kills: []faults.BankKill{{Bank: 27, At: killAt}}}},
	}
	rcfg := reallocSweepConfig(opt)
	variants := []realloc.Config{{}, rcfg} // static, dynamic

	cells := make([]cell, 0, len(ws)*len(scens)*len(variants))
	for _, w := range ws {
		for _, sc := range scens {
			for vi, rv := range variants {
				vname := "static"
				if vi == 1 {
					vname = "dynamic"
				}
				o := opt
				o.Faults = sc.spec
				o.Realloc = rv
				cells = append(cells, cell{fmt.Sprintf("%s/%s/%s", w.Name(), sc.name, vname),
					baseConfig(o, core.DefaultPolicy()), w, sys.AffAlloc})
			}
		}
	}
	rs, err := runCells(opt, cells)
	errs := cellErrors(len(cells), err)
	at := func(wi, si, vi int) (workloads.Result, error) {
		idx := (wi*len(scens)+si)*len(variants) + vi
		return rs[idx], errs[idx]
	}

	tbl := stats.NewTable("Online re-allocation: static vs dynamic placement (Aff-Alloc)",
		"workload", "scenario", "cycles.static", "cycles.dynamic", "dyn/static", "migrations", "rehomes", "moved.KB")
	scalar := func(r workloads.Result, key string) uint64 {
		return r.Metrics.Detail.Scalar(key)
	}
	for wi, w := range ws {
		for si, sc := range scens {
			row := []interface{}{w.Name(), sc.name}
			st, serr := at(wi, si, 0)
			dy, derr := at(wi, si, 1)
			if serr == nil && derr == nil && st.Checksum != dy.Checksum {
				// Migration changed the computation — a simulator bug, not a
				// degraded-cell condition the sweep should tolerate.
				return nil, fmt.Errorf("realloc sweep: %s/%s: dynamic checksum %x != static %x (migration must be timing-only)",
					w.Name(), sc.name, dy.Checksum, st.Checksum)
			}
			if serr != nil {
				row = append(row, "FAILED("+shortReason(serr)+")")
			} else {
				row = append(row, uint64(st.Metrics.Cycles))
			}
			if derr != nil {
				row = append(row, "FAILED("+shortReason(derr)+")", "n/a", "n/a", "n/a", "n/a")
			} else {
				row = append(row, uint64(dy.Metrics.Cycles))
				if serr == nil && st.Metrics.Cycles > 0 {
					row = append(row, float64(dy.Metrics.Cycles)/float64(st.Metrics.Cycles))
				} else {
					row = append(row, "n/a")
				}
				row = append(row,
					scalar(dy, "realloc_migrations"),
					scalar(dy, "realloc_kill_rehomes"),
					float64(scalar(dy, "realloc_moved_bytes"))/1024)
			}
			tbl.AddRow(row...)
		}
	}

	fig := &Figure{
		ID:     "realloc",
		Title:  "Static vs dynamic placement on clean and bank-kill machines",
		Tables: []*stats.Table{tbl},
		Notes: []string{
			fmt.Sprintf("dynamic: reconciler %s; static: same machine, reconciler off", rcfg),
			"dyn/static < 1 means the telemetry-driven migrations paid for their modeled NoC+port traffic",
			"both variants suffer the same mid-run kill; checksums are cross-checked (migration is timing-only)",
		},
	}
	return fig, err
}
