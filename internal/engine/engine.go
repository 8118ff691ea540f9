// Package engine holds the simulator's time base: the cycle type and the
// capacity-calendar Server that models every shared resource (L3 bank
// ports, NoC links, DRAM channels, SEL3 compute threads). The machine
// model is analytic — each request reserves capacity on the Servers it
// touches and gets back its start cycle — so there is no event queue;
// counters update inline at the call that earns them.
package engine

// Time is a simulated cycle count.
type Time uint64

// MaxTime returns the later of two times.
func MaxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}
