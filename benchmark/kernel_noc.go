package main

import (
	"fmt"
	"math/rand"
	"time"

	"affinityalloc/internal/engine"
	"affinityalloc/internal/noc"
)

// kernelNoC times noc.Network.Send between seeded uniform tile pairs,
// alternating a line of data with an 8-byte control message.
func kernelNoC(r *result, seed int64, sz sizing) error {
	var ns []float64
	for round := 0; round < sz.KernelRounds; round++ {
		s, err := newSystem(seed)
		if err != nil {
			return err
		}
		n := sz.KernelN
		rng := rand.New(rand.NewSource(seed))
		from, to := make([]int, n), make([]int, n)
		for i := range from {
			from[i], to[i] = rng.Intn(len(s.Cores)), rng.Intn(len(s.Cores))
		}
		var last engine.Time
		t0 := time.Now()
		for i := range from {
			if i%2 == 0 {
				last = s.Net.Send(engine.Time(i), from[i], to[i], noc.Data, 64)
			} else {
				last = s.Net.Send(engine.Time(i), from[i], to[i], noc.Control, 8)
			}
		}
		d := time.Since(t0)
		if last == 0 {
			return fmt.Errorf("%d sends arrived at cycle 0", n)
		}
		ns = append(ns, float64(d)/float64(n))
	}
	r.Values["noc.send_ns"] = median(ns)
	return nil
}
