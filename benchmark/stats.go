package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// median returns the middle of vals (mean of the two middles for an even
// count), or 0 for none.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of vals (0 < q <= 1).
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// geomean returns the geometric mean of vals, or 0 when any is not
// positive.
func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		if v <= 0 {
			return 0
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vals)))
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }

const mb = 1 << 20

// hostCost is what one pass or rep cost the host.
type hostCost struct {
	Wall      time.Duration
	AllocMB   float64
	GCCycles  float64
	GCPauseMS float64
}

// measure runs fn once and reports its wall time, bytes allocated and
// collector activity. The collection before the start and the two
// stop-the-world MemStats reads sit outside the timed region.
func measure(fn func()) hostCost {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	fn()
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	return hostCost{
		Wall:      wall,
		AllocMB:   float64(m1.TotalAlloc-m0.TotalAlloc) / mb,
		GCCycles:  float64(m1.NumGC - m0.NumGC),
		GCPauseMS: float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
	}
}

// costColumns splits a set of passes into one slice per hostCost field.
func costColumns(cs []hostCost) (wall, allocMB, gcCycles, gcPauseMS []float64) {
	for _, c := range cs {
		wall = append(wall, seconds(c.Wall))
		allocMB = append(allocMB, c.AllocMB)
		gcCycles = append(gcCycles, c.GCCycles)
		gcPauseMS = append(gcPauseMS, c.GCPauseMS)
	}
	return
}

// histQuantile reads a quantile from a power-of-two bucket-count series
// as affinityd publishes it under placement_latency_ns: bucket i counts
// samples in [2^i, 2^(i+1)), bucket 0 also 0 and 1. It interpolates
// inside the winning bucket. The benchmark carries its own copy so that
// it does not depend on which package owns histograms.
func histQuantile(counts []uint64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range counts {
		if c > 0 && cum+c >= rank {
			lo := 0.0
			if i > 0 {
				lo = math.Ldexp(1, i)
			}
			hi := math.Ldexp(1, i+1)
			return lo + float64(rank-cum)/float64(c)*(hi-lo)
		}
		cum += c
	}
	return math.Ldexp(1, len(counts))
}
