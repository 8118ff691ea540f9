package trace

import (
	"fmt"
	"math/rand"
	"strings"
)

// ComposeOptions shapes a multi-tenant composition.
type ComposeOptions struct {
	// Label names the composed scenario ("+"-joined input labels when
	// empty).
	Label string
	// Seed drives the deterministic interleaving of tenant event
	// streams; the same inputs and seed always compose byte-identically.
	Seed int64
	// Churn appends this many extra lifetime cycles per tenant: at the
	// end of every cycle but the last, each tenant frees its surviving
	// allocations, then re-runs its event sequence — multi-tenant
	// allocate/free churn against a warm allocator.
	Churn int
}

// Compose interleaves single-tenant scenarios into one multi-tenant
// colocation scenario. Per-tenant event order is preserved (symbolic
// refs require it); the cross-tenant interleaving is a seeded weighted
// shuffle, so tenants contend for the allocator and the memory system
// the way concurrently running workloads would. The machine header
// (mesh, seed, policy, faults, mode) is taken from the first input;
// inputs recorded under other configurations are replayed under the
// first tenant's machine.
func Compose(scs []*Scenario, opt ComposeOptions) (*Scenario, error) {
	if len(scs) == 0 {
		return nil, fmt.Errorf("trace: nothing to compose")
	}
	labels := make([]string, len(scs))
	for i, sc := range scs {
		if sc.NumTenants() > 1 {
			return nil, fmt.Errorf("trace: %q is already multi-tenant; compose single-tenant scenarios", sc.Label)
		}
		labels[i] = sc.Label
	}
	out := &Scenario{
		Label:   opt.Label,
		Mode:    scs[0].Mode,
		MeshW:   scs[0].MeshW,
		MeshH:   scs[0].MeshH,
		Seed:    scs[0].Seed,
		Policy:  scs[0].Policy,
		Faults:  scs[0].Faults,
		Tenants: labels,
	}
	if out.Label == "" {
		out.Label = strings.Join(labels, "+")
	}

	queues := make([][]Event, len(scs))
	for t, sc := range scs {
		queues[t] = churned(sc, t, opt.Churn)
	}

	rng := rand.New(rand.NewSource(opt.Seed))
	rem := 0
	for _, q := range queues {
		rem += len(q)
	}
	for rem > 0 {
		// Draw the next event from a tenant picked with probability
		// proportional to its remaining stream — a uniformly random
		// linear extension of the per-tenant orders.
		k := int(rng.Int63n(int64(rem)))
		for t := range queues {
			if k >= len(queues[t]) {
				k -= len(queues[t])
				continue
			}
			out.Events = append(out.Events, queues[t][0])
			queues[t] = queues[t][1:]
			break
		}
		rem--
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// churned expands one tenant's event stream to 1+churn lifetime cycles,
// tagging every event with the tenant index and offsetting symbolic
// refs into each cycle's ID range. Every cycle except the last ends
// with frees of the cycle's surviving successful allocations, so the
// next cycle reallocates against a fragmented heap.
func churned(sc *Scenario, tenant, churn int) []Event {
	perCycle := sc.AllocCount(0)
	survivors := surviving(sc)
	var out []Event
	for c := int64(0); c <= int64(churn); c++ {
		off := c * perCycle
		for i := range sc.Events {
			e := sc.Events[i] // copy; Touches/Affinity slices stay shared (read-only)
			e.Tenant = tenant
			if e.Ref > 0 {
				e.Ref += off
			}
			if e.AlignRef > 0 {
				e.AlignRef += off
			}
			if off > 0 && len(e.Affinity) > 0 {
				refs := make([]Ref, len(e.Affinity))
				copy(refs, e.Affinity)
				for j := range refs {
					if refs[j].Ref > 0 {
						refs[j].Ref += off
					}
				}
				e.Affinity = refs
			}
			out = append(out, e)
		}
		if c < int64(churn) {
			for _, id := range survivors {
				out = append(out, Event{Kind: KindFree, Tenant: tenant, Ref: id + off})
			}
		}
	}
	return out
}

// surviving lists the scenario's successful allocation IDs still live at
// its end (in allocation order): the set a churn cycle must release.
func surviving(sc *Scenario) []int64 {
	var id int64
	live := map[int64]bool{}
	for i := range sc.Events {
		e := &sc.Events[i]
		switch e.Kind {
		case KindAlloc:
			id++
			if e.Err == "" {
				live[id] = true
			}
		case KindFree:
			if e.Ref > 0 {
				delete(live, e.Ref)
			}
		}
	}
	out := make([]int64, 0, len(live))
	for i := int64(1); i <= id; i++ {
		if live[i] {
			out = append(out, i)
		}
	}
	return out
}

// NoiseSpec parameterizes a synthetic noisy-neighbor tenant.
type NoiseSpec struct {
	Label string // "noise" when empty
	// Bytes is the noise buffer footprint (1 MiB when 0).
	Bytes int64
	// Bursts is how many access/stream epochs the tenant issues (8 when
	// 0); each sweeps the whole buffer.
	Bursts int
	// Reads and Writes are per-chunk access counts per burst (4/4 when
	// both 0).
	Reads, Writes uint32
	// Hot is the extra per-burst access count (split evenly between
	// reads and writes) hammered onto one rotating hot chunk — the
	// concentrated component that actually saturates a bank port and
	// its DRAM channel (4096 when 0, negative disables).
	Hot int
	// Flows is the number of offload config flows per burst (16 when 0),
	// scattered across the mesh by Seed.
	Flows int
	// MeshW, MeshH bound the flow endpoints (8×8 when 0).
	MeshW, MeshH int
	Seed         int64
}

// NoisyNeighbor synthesizes a portable single-tenant scenario that
// hammers one streamed buffer and sprays stream-engine traffic across
// the mesh — the interference generator for colocation scenarios. It
// references only its own allocation, so it composes safely onto any
// machine.
func NoisyNeighbor(sp NoiseSpec) *Scenario {
	if sp.Label == "" {
		sp.Label = "noise"
	}
	if sp.Bytes <= 0 {
		sp.Bytes = 1 << 20
	}
	if sp.Bursts <= 0 {
		sp.Bursts = 8
	}
	if sp.Reads == 0 && sp.Writes == 0 {
		sp.Reads, sp.Writes = 4, 4
	}
	if sp.Hot == 0 {
		sp.Hot = 4096
	}
	if sp.Flows <= 0 {
		sp.Flows = 16
	}
	w, h := sp.MeshW, sp.MeshH
	if w <= 0 {
		w = 8
	}
	if h <= 0 {
		h = 8
	}
	nb := w * h
	rng := rand.New(rand.NewSource(sp.Seed))

	sc := &Scenario{Label: sp.Label, Seed: 1}
	sc.Events = append(sc.Events, Event{Kind: KindAlloc, Op: OpBase, Size: sp.Bytes})
	gran := granFor(sp.Bytes)
	nChunks := (sp.Bytes + gran - 1) / gran
	for b := 0; b < sp.Bursts; b++ {
		acc := Event{Kind: KindAccess, Ref: 1, Gran: gran}
		for c := int64(0); c < nChunks; c++ {
			acc.Touches = append(acc.Touches, Touch{Chunk: c, Reads: sp.Reads, Writes: sp.Writes})
		}
		if sp.Hot > 0 {
			h := &acc.Touches[int64(b)%nChunks]
			h.Reads += uint32(sp.Hot / 2)
			h.Writes += uint32(sp.Hot - sp.Hot/2)
		}
		sc.Events = append(sc.Events, acc)
		st := Event{Kind: KindStream}
		for i := 0; i < sp.Flows; i++ {
			st.Offloads = append(st.Offloads, Flow{From: rng.Intn(nb), To: rng.Intn(nb), N: 1 + uint32(rng.Intn(3))})
		}
		sortFlows(st.Offloads)
		st.Offloads = mergeFlows(st.Offloads)
		sc.Events = append(sc.Events, st)
	}
	return sc
}

// mergeFlows collapses duplicate (from,to) edges of a sorted flow list.
func mergeFlows(fs []Flow) []Flow {
	out := fs[:0]
	for _, f := range fs {
		if n := len(out); n > 0 && out[n-1].From == f.From && out[n-1].To == f.To {
			out[n-1].N += f.N
			continue
		}
		out = append(out, f)
	}
	return out
}
