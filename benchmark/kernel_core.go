package main

import (
	"fmt"
	"time"

	"affinityalloc/internal/affinityd"
	"affinityalloc/internal/trace"
)

// kernelCore times the allocator alone on the daemon's own request
// stream: affinityd.ScenarioFromStream lowered to a scenario and driven
// by trace.Replay, with no wire and no journal. replay_growth compares
// the per-placement cost of the full stream with that of its first
// quarter; an allocator whose cost per call does not depend on history
// reads 1.
func kernelCore(r *result, seed int64, sz sizing) error {
	seed = daemonSeed(seed)
	var full, quarter []float64
	for round := 0; round < sz.KernelRounds; round++ {
		us, err := replayRound(seed, sz.DaemonOps, sz.DaemonBatch)
		if err != nil {
			return err
		}
		full = append(full, us)
		if us, err = replayRound(seed, sz.DaemonOps/4, sz.DaemonBatch); err != nil {
			return err
		}
		quarter = append(quarter, us)
	}
	r.Values["core.replay_us_per_placement"] = median(full)
	if q := median(quarter); q > 0 {
		r.Values["core.replay_growth"] = median(full) / q
	}
	return nil
}

// replayRound replays the first ops requests of the seeded stream and
// returns host µs per placement.
func replayRound(seed int64, ops, batch int) (float64, error) {
	sc, err := affinityd.ScenarioFromStream(affinityd.MachineSpec{Seed: seed}, seed, daemonStream, ops, batch)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	res, err := trace.Replay(sc, trace.Options{})
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if len(res.Placements) != ops {
		return 0, fmt.Errorf("replay made %d placements, want %d", len(res.Placements), ops)
	}
	return micros(d) / float64(ops), nil
}
