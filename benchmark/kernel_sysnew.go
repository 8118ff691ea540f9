package main

import (
	"runtime"
	"time"
)

// sysNewProbes is how many times figs_tiny times sys.New after a traced
// pass.
const sysNewProbes = 8

// probeSysNew times sys.New on the default machine n times and reads the
// bytes each call allocated.
func probeSysNew(seed int64, n int) ([]time.Duration, []float64, error) {
	var times []time.Duration
	var mbs []float64
	for i := 0; i < n; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		_, err := newSystem(seed)
		d := time.Since(t0)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, d)
		runtime.ReadMemStats(&m1)
		mbs = append(mbs, float64(m1.TotalAlloc-m0.TotalAlloc)/mb)
	}
	return times, mbs, nil
}
