package main

import (
	"fmt"
	"time"

	"affinityalloc/internal/engine"
)

// kernelEngine times engine.Server.Reserve on a server shaped like an L3
// bank port or a link (one unit a cycle, 8-cycle buckets, 4096 of them):
// idle, where arrivals are spaced wider than a bucket and every one
// finds room where it lands, and backlog, where arrivals ask for four
// times the capacity, so every one walks the saturated buckets to the
// queue's tail and the window slides. The backlog fills the window
// within the first 11 000 arrivals and a reservation then costs some
// 400 times an idle one, so that round makes an eighth as many.
func kernelEngine(r *result, _ int64, sz sizing) error {
	var idle, backlog []float64
	for round := 0; round < sz.KernelRounds; round++ {
		idle = append(idle, reserveRound(sz.KernelN, 16, 1))
		backlog = append(backlog, reserveRound(sz.KernelN/8, 1, 4))
	}
	if idle[0] == 0 || backlog[0] == 0 {
		return fmt.Errorf("Server.Reserve never advanced")
	}
	r.Values["engine.reserve_ns.idle"] = median(idle)
	r.Values["engine.reserve_ns.backlog"] = median(backlog)
	return nil
}

// reserveRound makes n reservations of units, one every gap cycles, and
// returns host ns per reservation (0 if service never left cycle 0).
func reserveRound(n int64, gap engine.Time, units int) float64 {
	srv := engine.NewServer(1, 8, 4096)
	var last engine.Time
	t0 := time.Now()
	for i := int64(0); i < n; i++ {
		last = srv.Reserve(engine.Time(i)*gap, units)
	}
	d := time.Since(t0)
	if last == 0 {
		return 0
	}
	return float64(d) / float64(n)
}
