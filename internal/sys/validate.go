package sys

import (
	"errors"
	"fmt"
	"math"

	"affinityalloc/internal/core"
	"affinityalloc/internal/memsim"
	"affinityalloc/internal/topo"
)

// maxSMTThreads bounds Stream.SMTThreads: the stream engine schedules
// each bank's threads on a capacity calendar with 8-cycle buckets, whose
// per-bucket counts are uint16, so 8·SMTThreads units must fit one.
const maxSMTThreads = math.MaxUint16 / 8

// errTooManySMTThreads rejects a stream engine whose compute capacity a
// calendar window cannot count.
var errTooManySMTThreads = errors.New("sys: stream SMTThreads above 8191: 8·SMTThreads units a bucket must fit a uint16 window count (Table 2 uses 2)")

// Validate checks a configuration before assembly and returns an
// actionable error for the first problem found. Zero-valued NoC and
// stream sub-configs are legal (they select Table-2 defaults at build
// time), so only explicitly wrong values are rejected here; sub-config
// fields that must be positive for assembly to succeed (mesh dims, cache
// geometries) are checked with messages naming the field.
func (c Config) Validate() error {
	if c.MeshW <= 0 || c.MeshH <= 0 {
		return fmt.Errorf("sys: invalid mesh %dx%d: MeshW and MeshH must both be positive (Table 2 uses 8x8)", c.MeshW, c.MeshH)
	}
	if c.Numbering == topo.Quadrant && (c.MeshW != c.MeshH || c.MeshW&(c.MeshW-1) != 0) {
		return fmt.Errorf("sys: quadrant numbering needs a power-of-two square mesh, got %dx%d (use RowMajor or resize)", c.MeshW, c.MeshH)
	}
	if c.MemSys.BankSizeBytes <= 0 {
		return fmt.Errorf("sys: L3 bank size %d bytes: must be positive (Table 2 uses 1MB per bank)", c.MemSys.BankSizeBytes)
	}
	if c.MemSys.BankWays <= 0 {
		return fmt.Errorf("sys: L3 bank associativity %d: must be positive (Table 2 uses 16 ways)", c.MemSys.BankWays)
	}
	if c.MemSys.BankSizeBytes%(c.MemSys.BankWays*memsim.LineSize) != 0 {
		return fmt.Errorf("sys: L3 bank size %d is not divisible by ways*linesize (%d*%d)",
			c.MemSys.BankSizeBytes, c.MemSys.BankWays, memsim.LineSize)
	}
	if sets := c.MemSys.BankSizeBytes / (c.MemSys.BankWays * memsim.LineSize); sets&(sets-1) != 0 {
		return fmt.Errorf("sys: L3 bank geometry %dB/%d-way yields %d sets: must be a power of two", c.MemSys.BankSizeBytes, c.MemSys.BankWays, sets)
	}
	for _, pc := range []struct {
		name       string
		size, ways int
	}{
		{"L1", c.Core.L1SizeBytes, c.Core.L1Ways},
		{"L2", c.Core.L2SizeBytes, c.Core.L2Ways},
	} {
		if pc.size <= 0 || pc.ways <= 0 {
			return fmt.Errorf("sys: %s cache %dB/%d-way: size and ways must be positive (start from cpu.DefaultConfig)", pc.name, pc.size, pc.ways)
		}
		if pc.size%(pc.ways*memsim.LineSize) != 0 {
			return fmt.Errorf("sys: %s cache size %d is not divisible by ways*linesize (%d*%d)", pc.name, pc.size, pc.ways, memsim.LineSize)
		}
	}
	if c.Policy.Policy < core.Rnd || c.Policy.Policy > core.Hybrid {
		return fmt.Errorf("sys: unknown bank-selection policy %v (want Rnd, Lnr, MinHop or Hybrid)", c.Policy.Policy)
	}
	if c.Policy.H < 0 {
		return fmt.Errorf("sys: policy weight H=%g: the Eq.-4 load-balance weight cannot be negative (the paper's default is 5)", c.Policy.H)
	}
	if c.NoC.LinkBytes < 0 || c.NoC.HeaderBytes < 0 {
		return fmt.Errorf("sys: NoC link/header bytes %d/%d cannot be negative (zero selects Table-2 defaults)", c.NoC.LinkBytes, c.NoC.HeaderBytes)
	}
	if lb := c.NoC.LinkBytes; lb&(lb-1) != 0 {
		return fmt.Errorf("sys: NoC link width %d bytes: must be a power of two (zero selects Table 2's 32)", lb)
	}
	if c.Stream.SIMDLanes < 0 || c.Stream.SMTThreads < 0 {
		return fmt.Errorf("sys: stream SIMDLanes/SMTThreads %d/%d cannot be negative (zero selects Table-2 defaults)", c.Stream.SIMDLanes, c.Stream.SMTThreads)
	}
	if c.Stream.SMTThreads > maxSMTThreads {
		return fmt.Errorf("%w: got %d", errTooManySMTThreads, c.Stream.SMTThreads)
	}
	if c.Mem.DefaultInterleave <= 0 {
		return fmt.Errorf("sys: NUCA interleave %d bytes: must be positive (Table 2 uses 1024)", c.Mem.DefaultInterleave)
	}
	if !c.Faults.Empty() {
		// Channel count is unknown until the mesh is built (it depends on
		// controller placement); passing 0 skips the upper-bound check
		// here, and faults.New re-validates against the real geometry.
		if err := c.Faults.Check(c.MeshW*c.MeshH, 0); err != nil {
			return fmt.Errorf("sys: %v", err)
		}
	}
	if err := c.Realloc.Validate(); err != nil {
		return fmt.Errorf("sys: %v", err)
	}
	return nil
}
