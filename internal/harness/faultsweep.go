package harness

import (
	"fmt"

	"affinityalloc/internal/core"
	"affinityalloc/internal/faults"
	"affinityalloc/internal/stats"
	"affinityalloc/internal/sys"
	"affinityalloc/internal/workloads"
)

// FaultsSweep renders the degraded-substrate table behind `afftables
// -faults-sweep`: BFS under the three allocation modes across increasing
// dead-bank and dead-link counts, each cell's cycles normalized to the
// same mode on the clean machine (so every column reads as a slowdown).
// The question it answers is the paper's taming argument under damage:
// does affinity allocation keep its advantage when placement must
// re-evaluate against a degraded bank map and routes must detour dead
// links?
//
// The sweep is deliberately not in the Experiments registry — the default
// paper-shaped output stays byte-identical — and it tolerates per-cell
// failures: a failed cell renders as FAILED(<reason>) while the rest of
// the table fills in, and the error is still returned so callers exit
// non-zero.
func FaultsSweep(opt Options) (*Figure, error) {
	g, gt := sharedGraph(opt)
	w := workloads.BFS{G: g, GT: gt, Src: -1}

	type level struct {
		name string
		spec faults.Spec
	}
	levels := []level{{"clean", faults.Spec{}}}
	for _, nb := range []int{1, 2, 4} {
		levels = append(levels, level{
			fmt.Sprintf("dead-banks=%d", nb),
			faults.Spec{Seed: opt.Seed, NDeadBanks: nb},
		})
	}
	for _, nl := range []int{2, 4, 8} {
		levels = append(levels, level{
			fmt.Sprintf("dead-links=%d", nl),
			faults.Spec{Seed: opt.Seed, NDeadLinks: nl},
		})
	}
	levels = append(levels, level{
		"dead-banks=2,dead-links=4",
		faults.Spec{Seed: opt.Seed, NDeadBanks: 2, NDeadLinks: 4},
	})

	cells := make([]cell, 0, len(levels)*len(sys.Modes))
	for _, lv := range levels {
		o := opt
		o.Faults = lv.spec
		cfg := baseConfig(o, core.DefaultPolicy())
		for _, mode := range sys.Modes {
			cells = append(cells, cell{fmt.Sprintf("bfs/%s/%v", lv.name, mode), cfg, w, mode})
		}
	}
	rs, err := runCells(opt, cells)
	errs := cellErrors(len(cells), err)

	headers := []string{"faults"}
	for _, mode := range sys.Modes {
		headers = append(headers, "slowdown."+mode.String())
	}
	headers = append(headers, "hops.Aff-Alloc")
	tbl := stats.NewTable("Faults sweep: BFS slowdown vs the clean machine, per allocation mode", headers...)

	at := func(li, mi int) (workloads.Result, error) {
		idx := li*len(sys.Modes) + mi
		return rs[idx], errs[idx]
	}
	cleanAffHops := 0.0
	if r, err := at(0, len(sys.Modes)-1); err == nil {
		cleanAffHops = float64(r.Metrics.FlitHops)
	}
	for li, lv := range levels {
		row := []interface{}{lv.name}
		for mi := range sys.Modes {
			r, err := at(li, mi)
			if err != nil {
				row = append(row, "FAILED("+shortReason(err)+")")
				continue
			}
			clean, cerr := at(0, mi)
			if cerr != nil || clean.Metrics.Cycles == 0 {
				row = append(row, "n/a")
				continue
			}
			row = append(row, float64(r.Metrics.Cycles)/float64(clean.Metrics.Cycles))
		}
		if r, err := at(li, len(sys.Modes)-1); err == nil && cleanAffHops > 0 {
			row = append(row, float64(r.Metrics.FlitHops)/cleanAffHops)
		} else {
			row = append(row, "n/a")
		}
		tbl.AddRow(row...)
	}

	fig := &Figure{
		ID:     "faults",
		Title:  "Allocation modes on a degraded substrate (dead banks / dead links)",
		Tables: []*stats.Table{tbl},
		Notes: []string{
			"slowdown: cycles / same mode on the clean machine; hops: Aff-Alloc flit-hops vs clean Aff-Alloc",
			"auto-picked victims are drawn from seed=" + fmt.Sprint(opt.Seed) + "; the mesh always stays connected",
		},
	}
	return fig, err
}

// shortReason compresses a cell error into a table-cell-sized tag.
func shortReason(err error) string {
	s := err.Error()
	const maxLen = 48
	if len(s) > maxLen {
		s = s[:maxLen-3] + "..."
	}
	return s
}
