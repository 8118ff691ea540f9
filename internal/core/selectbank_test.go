package core

import (
	"math/rand"
	"testing"

	"affinityalloc/internal/memsim"
	"affinityalloc/internal/topo"
)

// refScoreBank is Eq. 4 written out naively: the mean of Mesh.Hops from
// the bank to every affinity address, repeats counted, plus H times the
// bank's load over the mean load, less one. It reads the runtime only
// through its public surface.
func refScoreBank(r *Runtime, bank int, affinity []memsim.Addr, h float64) float64 {
	score := 0.0
	if len(affinity) > 0 {
		sum := 0
		for _, a := range affinity {
			sum += r.Mesh().Hops(bank, r.BankOf(a))
		}
		score = float64(sum) / float64(len(affinity))
	}
	if h != 0 {
		load, total := r.LoadVector(), 0
		for _, l := range load {
			total += l
		}
		if avg := float64(total) / float64(len(load)); avg > 0 {
			score += h * (float64(load[bank])/avg - 1)
		}
	}
	return score
}

// refSelectBank scores every alive bank with refScoreBank and returns
// the first one with the lowest score.
func refSelectBank(r *Runtime, affinity []memsim.Addr, h float64) int {
	best, bestScore := -1, 0.0
	for b := 0; b < r.Mesh().Banks(); b++ {
		if !r.Space().BankAlive(b) {
			continue
		}
		if s := refScoreBank(r, b, affinity, h); best < 0 || s < bestScore {
			best, bestScore = b, s
		}
	}
	return best
}

// selectBankMeshes are the meshes the Eq. 4 differential runs on: the
// paper's 8×8 under both numberings and a non-square 4×2.
var selectBankMeshes = []struct {
	w, h int
	num  topo.Numbering
}{{8, 8, topo.RowMajor}, {8, 8, topo.Quadrant}, {4, 2, topo.RowMajor}}

// checkSelectBank builds a runtime on the given mesh, kills `kills`
// seeded banks, skews the load with AllocAtBank, and then, step after
// step, draws a seeded affinity list of 0 to MaxAffinityAddrs addresses
// (repeats included) and compares selectBank with refSelectBank before
// placing through AllocNear, so the load the next step scores is the
// one the policy's own choices built. Some steps free a chunk instead.
func checkSelectBank(t *testing.T, mi int, pcfg PolicyConfig, kills int, seed int64, steps int) {
	t.Helper()
	m := selectBankMeshes[mi]
	mesh := topo.MustMesh(m.w, m.h, m.num)
	cfg := memsim.DefaultConfig()
	cfg.Banks = mesh.Banks()
	r := MustNew(memsim.MustSpace(cfg), mesh, pcfg, seed)
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < kills && k < mesh.Banks()-1; k++ {
		if err := r.Space().KillBank(rng.Intn(mesh.Banks())); err != nil {
			k-- // already dead; draw again
		}
	}
	alive := func() int {
		for {
			if b := rng.Intn(mesh.Banks()); r.Space().BankAlive(b) {
				return b
			}
		}
	}
	var live []memsim.Addr
	// A few hot banks take most of the skewed load.
	hot := []int{alive(), alive(), alive()}
	for i := 0; i < 4*mesh.Banks(); i++ {
		b := alive()
		if rng.Intn(2) == 0 {
			b = hot[rng.Intn(len(hot))]
		}
		a, err := r.AllocAtBank(int64(1+rng.Intn(512)), b)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, a)
	}
	h := 0.0
	if pcfg.Policy == Hybrid {
		h = pcfg.H
	}
	aff := make([]memsim.Addr, 0, MaxAffinityAddrs)
	for step := 0; step < steps; step++ {
		if rng.Intn(8) == 0 {
			i := rng.Intn(len(live))
			if err := r.Free(live[i]); err != nil {
				t.Fatal(err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		aff = aff[:0]
		for n := rng.Intn(MaxAffinityAddrs + 1); len(aff) < n; {
			if len(aff) > 0 && rng.Intn(4) == 0 {
				aff = append(aff, aff[rng.Intn(len(aff))]) // a repeat
			} else {
				aff = append(aff, live[rng.Intn(len(live))])
			}
		}
		if len(aff) == 0 && pcfg.Policy == MinHop {
			// MinHop without affinity draws a random bank; Eq. 4 has no
			// preference to compare against.
			if b := r.selectBank(aff); !r.Space().BankAlive(b) {
				t.Fatalf("mesh %d %v kills %d seed %d step %d: chose dead bank %d", mi, pcfg, kills, seed, step, b)
			}
		} else if got, want := r.selectBank(aff), refSelectBank(r, aff, h); got != want {
			t.Fatalf("mesh %d %v kills %d seed %d step %d: selectBank over %d addresses chose bank %d, Eq. 4 reference %d",
				mi, pcfg, kills, seed, step, len(aff), got, want)
		}
		a, err := r.AllocNear(int64(1+rng.Intn(256)), aff)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, a)
	}
}

var selectBankPolicies = []PolicyConfig{{Policy: MinHop}, {Policy: Hybrid, H: 0.5}, {Policy: Hybrid, H: 5}}

// TestSelectBankMatchesEq4Reference: on every mesh, clean and with dead
// banks, under MinHop and Hybrid at H 0.5 and 5, selectBank picks the
// bank the naive Eq. 4 reference picks, tie-break included.
func TestSelectBankMatchesEq4Reference(t *testing.T) {
	for mi := range selectBankMeshes {
		for _, pcfg := range selectBankPolicies {
			for _, kills := range []int{0, 1, 3} {
				for seed := int64(1); seed <= 2; seed++ {
					checkSelectBank(t, mi, pcfg, kills, seed, 400)
				}
			}
		}
	}
}

// FuzzSelectBank runs the Eq. 4 differential on fuzzed meshes, policies,
// dead-bank counts and seeds.
func FuzzSelectBank(f *testing.F) {
	f.Add(uint8(0), uint8(2), uint8(0), int64(1))
	f.Add(uint8(2), uint8(1), uint8(3), int64(9))
	f.Fuzz(func(t *testing.T, mesh, policy, kills uint8, seed int64) {
		checkSelectBank(t, int(mesh)%len(selectBankMeshes), selectBankPolicies[int(policy)%len(selectBankPolicies)],
			int(kills)%4, seed, 100)
	})
}
