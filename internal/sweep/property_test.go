package sweep

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/hwpri"
	"repro/internal/mpisim"
	"repro/internal/oskernel"
	"repro/internal/power5"
	"repro/internal/workload"
)

// propTopologies are the small machines the placement properties are
// checked on.
var propTopologies = []power5.Topology{
	{Chips: 1, CoresPerChip: 2, SMTWays: 2},
	{Chips: 2, CoresPerChip: 2, SMTWays: 2},
	{Chips: 2, CoresPerChip: 1, SMTWays: 2},
	{Chips: 3, CoresPerChip: 2, SMTWays: 2},
}

// TestEnumeratedPlacementsValid asserts the placement-validity property:
// every enumerated point expands to a placement that is legal for its
// topology — distinct in-range CPUs, paired ranks sharing a core, and a
// valid priority per rank.
func TestEnumeratedPlacementsValid(t *testing.T) {
	for _, topo := range propTopologies {
		for n := 2; n <= 2*topo.Cores() && n <= 8; n += 2 {
			points, err := Enumerate(n, Space{Topology: topo, Alphabet: []hwpri.Priority{hwpri.Medium, hwpri.High}})
			if err != nil {
				t.Fatalf("%s/%d ranks: %v", topo, n, err)
			}
			if len(points) == 0 {
				t.Fatalf("%s/%d ranks: empty space", topo, n)
			}
			for _, pt := range points {
				pl := pt.Placement()
				if len(pl.CPU) != n || len(pl.Prio) != n {
					t.Fatalf("%s/%d: point %s placement sized %d/%d", topo, n, pt, len(pl.CPU), len(pl.Prio))
				}
				seen := map[int]bool{}
				for r, cpu := range pl.CPU {
					if cpu < 0 || cpu >= topo.Contexts() {
						t.Fatalf("%s/%d: point %s pins rank %d to CPU %d outside [0,%d)",
							topo, n, pt, r, cpu, topo.Contexts())
					}
					if seen[cpu] {
						t.Fatalf("%s/%d: point %s double-pins CPU %d", topo, n, pt, cpu)
					}
					seen[cpu] = true
					if !pl.Prio[r].Valid() {
						t.Fatalf("%s/%d: point %s has invalid priority %d", topo, n, pt, pl.Prio[r])
					}
				}
				for _, pair := range pt.Pairing {
					if topo.CoreOf(pl.CPU[pair[0]]) != topo.CoreOf(pl.CPU[pair[1]]) {
						t.Fatalf("%s/%d: point %s splits pair %v across cores", topo, n, pt, pair)
					}
				}
			}
		}
	}
}

// TestCoreAssignmentsCanonicalAndDistinct asserts the enumerator emits
// each symmetry class exactly once: no two assignments are equivalent
// under chip relabeling + within-chip core relabeling.
func TestCoreAssignmentsCanonicalAndDistinct(t *testing.T) {
	for _, topo := range propTopologies {
		for p := 1; p <= topo.Cores() && p <= 4; p++ {
			asgs, err := CoreAssignments(p, topo)
			if err != nil {
				t.Fatal(err)
			}
			seen := map[string]bool{}
			for _, asg := range asgs {
				sig := assignmentSignature(asg, p, topo)
				if seen[sig] {
					t.Errorf("%s/%d pairs: symmetry class %q enumerated twice", topo, p, sig)
				}
				seen[sig] = true
			}
			// First assignment is the identity (nil) whenever it exists.
			if asgs[0] != nil {
				t.Errorf("%s/%d pairs: first assignment %v is not the identity", topo, p, asgs[0])
			}
		}
	}
	// The documented counts: 1 on the full 1×2×2 machine, 2 for two
	// pairs on 2×2×2.
	if asgs, _ := CoreAssignments(2, power5.DefaultTopology()); len(asgs) != 1 {
		t.Errorf("1x2x2/2 pairs: %d assignments, want 1", len(asgs))
	}
	if asgs, _ := CoreAssignments(2, power5.Topology{Chips: 2, CoresPerChip: 2, SMTWays: 2}); len(asgs) != 2 {
		t.Errorf("2x2x2/2 pairs: %d assignments, want 2", len(asgs))
	}
}

// assignmentSignature canonicalizes a core assignment under the machine
// symmetries: the multiset of per-chip pair-index groups, each group
// sorted, groups sorted by first element.
func assignmentSignature(asg []int, p int, topo power5.Topology) string {
	byChip := map[int][]int{}
	for pi := 0; pi < p; pi++ {
		core := pi
		if asg != nil {
			core = asg[pi]
		}
		chip := topo.ChipOfCore(core)
		byChip[chip] = append(byChip[chip], pi)
	}
	var groups [][]int
	for _, g := range byChip {
		sort.Ints(g)
		groups = append(groups, g)
	}
	sort.Slice(groups, func(a, b int) bool { return groups[a][0] < groups[b][0] })
	return fmt.Sprint(groups)
}

// propCfg is a fast, exactly-reproducible simulator config for the
// symmetry cross-checks.
func propCfg(topo power5.Topology) mpisim.Config {
	chip := power5.DefaultConfig()
	chip.BranchBits = 10
	return mpisim.Config{
		Chip:      chip,
		Topology:  topo,
		Kernel:    oskernel.Config{Patched: true},
		KernelSet: true,
		MaxCycles: 1 << 26,
	}
}

// propJob is a small imbalanced 4-rank job.
func propJob() *mpisim.Job {
	job := &mpisim.Job{Name: "prop"}
	for r := 0; r < 4; r++ {
		n := int64(800)
		if r%2 == 1 {
			n = 3200
		}
		job.Ranks = append(job.Ranks, mpisim.Program{
			mpisim.Compute(workload.Load{Kind: workload.FPU, N: n}),
			mpisim.Barrier(),
		})
	}
	return job
}

// rawPairedPlacements enumerates the UNPRUNED space: every injective
// assignment of the job's ranks to contexts that co-schedules ranks in
// pairs (both contexts of an occupied core used), with the given
// per-rank priorities.  This is the ground truth the symmetry pruning
// must cover.
func rawPairedPlacements(n int, topo power5.Topology, prio []hwpri.Priority) []mpisim.Placement {
	var out []mpisim.Placement
	cpu := make([]int, n)
	usedCore := make([]bool, topo.Cores())
	assigned := make([]bool, n)
	var rec func(rank int)
	rec = func(rank int) {
		// Find first unassigned rank.
		for rank < n && assigned[rank] {
			rank++
		}
		if rank == n {
			out = append(out, mpisim.Placement{CPU: append([]int(nil), cpu...), Prio: prio})
			return
		}
		for core := 0; core < topo.Cores(); core++ {
			if usedCore[core] {
				continue
			}
			usedCore[core] = true
			assigned[rank] = true
			// Partner choices: any later unassigned rank, either context order.
			for partner := 0; partner < n; partner++ {
				if assigned[partner] {
					continue
				}
				assigned[partner] = true
				for _, order := range [2][2]int{{rank, partner}, {partner, rank}} {
					cpu[order[0]] = 2 * core
					cpu[order[1]] = 2*core + 1
					rec(rank + 1)
				}
				assigned[partner] = false
			}
			assigned[rank] = false
			usedCore[core] = false
		}
	}
	rec(0)
	return out
}

// canonicalPoint maps a raw paired placement to its canonical pruned
// representative: pairs sorted, chips in restricted-growth order.
func canonicalPoint(pl mpisim.Placement, topo power5.Topology) Point {
	n := len(pl.CPU)
	byCore := map[int][2]int{}
	coreSeen := map[int]bool{}
	for r := 0; r < n; r++ {
		core := topo.CoreOf(pl.CPU[r])
		pair := byCore[core]
		if !coreSeen[core] {
			coreSeen[core] = true
			pair = [2]int{r, -1}
		} else {
			if r < pair[0] {
				pair = [2]int{r, pair[0]}
			} else {
				pair[1] = r
			}
		}
		byCore[core] = pair
	}
	// Pairs in canonical order (by first rank).
	var pairing Pairing
	pairCore := map[int]int{} // pair index -> raw chip
	var pairs [][3]int        // first, second, raw chip
	for core, pr := range byCore {
		pairs = append(pairs, [3]int{pr[0], pr[1], topo.ChipOfCore(core)})
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a][0] < pairs[b][0] })
	for i, pr := range pairs {
		pairing = append(pairing, [2]int{pr[0], pr[1]})
		pairCore[i] = pr[2]
	}
	// Chips in restricted-growth order; cores within a chip in pair order.
	chipRelabel := map[int]int{}
	chipFill := map[int]int{}
	nextChip := 0
	cores := make([]int, len(pairing))
	for i := range pairing {
		raw := pairCore[i]
		label, ok := chipRelabel[raw]
		if !ok {
			label = nextChip
			chipRelabel[raw] = label
			nextChip++
		}
		cores[i] = label*topo.CoresPerChip + chipFill[label]
		chipFill[label]++
	}
	identity := true
	for i, c := range cores {
		identity = identity && c == i
	}
	if identity {
		cores = nil
	}
	return Point{Pairing: pairing, Cores: cores, Prio: pl.Prio}
}

// TestSymmetryPruningPreservesCycles asserts the symmetry the pruning
// relies on actually holds in the simulator: a raw placement and its
// canonical representative produce identical cycle counts.  Checked
// exhaustively on 1×2×2 and on a sample of the 2×2×2 raw space.
//
// The imbalance percentage is compared with a small tolerance: the
// lockstep machine steps chips (and a chip its cores) in index order, so
// a barrier-release event observed by a later-stepped chip re-arms its
// waiters within the same cycle while an earlier-stepped chip picks the
// release up one cycle later.  Relabeling chips can therefore shift a
// sync-interval boundary by a cycle — a sub-0.1pp wobble in the
// percentage metrics that never moves the cycle count.
func TestSymmetryPruningPreservesCycles(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-heavy property test")
	}
	job := propJob()
	prio := []hwpri.Priority{hwpri.Medium, hwpri.High, hwpri.Low, hwpri.Medium}
	for _, tc := range []struct {
		topo   power5.Topology
		stride int // sample every stride-th raw placement
	}{
		{power5.Topology{Chips: 1, CoresPerChip: 2, SMTWays: 2}, 1},
		{power5.Topology{Chips: 2, CoresPerChip: 2, SMTWays: 2}, 7},
	} {
		raw := rawPairedPlacements(4, tc.topo, prio)
		cfg := propCfg(tc.topo)
		cache := map[string]*mpisim.Result{}
		for i := 0; i < len(raw); i += tc.stride {
			pl := raw[i]
			rres, err := mpisim.Run(job, pl, cfg)
			if err != nil {
				t.Fatalf("%s raw %v: %v", tc.topo, pl.CPU, err)
			}
			canon := canonicalPoint(pl, tc.topo)
			key := canon.String()
			cres, ok := cache[key]
			if !ok {
				cres, err = mpisim.Run(job, canon.Placement(), cfg)
				if err != nil {
					t.Fatalf("%s canonical %s: %v", tc.topo, canon, err)
				}
				cache[key] = cres
			}
			imbDrift := rres.Imbalance - cres.Imbalance
			if imbDrift < 0 {
				imbDrift = -imbDrift
			}
			if rres.Cycles != cres.Cycles || imbDrift > 0.1 {
				t.Errorf("%s: raw %v (%d cycles, %.3f%%) != canonical %s (%d cycles, %.3f%%)",
					tc.topo, pl.CPU, rres.Cycles, rres.Imbalance, canon, cres.Cycles, cres.Imbalance)
			}
		}
	}
}

// TestSymmetryPruningKeepsOptimum cross-checks exhaustive vs pruned on
// the 1×2×2 machine: the best cycle count over every raw paired CPU
// assignment equals the best over the pruned enumeration.
func TestSymmetryPruningKeepsOptimum(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-heavy property test")
	}
	topo := power5.DefaultTopology()
	job := propJob()
	prio := []hwpri.Priority{hwpri.Medium, hwpri.High, hwpri.Low, hwpri.Medium}
	cfg := propCfg(topo)

	best := func(pls []mpisim.Placement) int64 {
		bestCycles := int64(-1)
		for _, pl := range pls {
			res, err := mpisim.Run(job, pl, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if bestCycles < 0 || res.Cycles < bestCycles {
				bestCycles = res.Cycles
			}
		}
		return bestCycles
	}

	raw := rawPairedPlacements(4, topo, prio)
	points, err := Enumerate(4, Space{Topology: topo, Alphabet: []hwpri.Priority{hwpri.Low, hwpri.Medium, hwpri.High}})
	if err != nil {
		t.Fatal(err)
	}
	// Keep only pruned points whose per-rank priorities match prio, so
	// the two spaces range over the same configurations.
	var pruned []mpisim.Placement
	for _, pt := range points {
		match := true
		for r, p := range pt.Prio {
			if p != prio[r] {
				match = false
				break
			}
		}
		if match {
			pruned = append(pruned, pt.Placement())
		}
	}
	if len(pruned) != 3 {
		t.Fatalf("pruned space has %d placements at the fixed priorities, want 3 pairings", len(pruned))
	}
	rawBest, prunedBest := best(raw), best(pruned)
	if rawBest != prunedBest {
		t.Errorf("pruning dropped the optimum: raw best %d cycles, pruned best %d", rawBest, prunedBest)
	}
}

// TestSweepTopologyDeterminism asserts a 2-chip sweep ranks identically
// whatever the worker count — the acceptance property for
// `mtbalance sweep -chips 2`.
func TestSweepTopologyDeterminism(t *testing.T) {
	topo := power5.Topology{Chips: 2, CoresPerChip: 2, SMTWays: 2}
	points, err := Enumerate(4, Space{Topology: topo, Alphabet: []hwpri.Priority{hwpri.Medium, hwpri.High}})
	if err != nil {
		t.Fatal(err)
	}
	// 3 pairings × 2 core maps × 2^4 priorities.
	if want := 3 * 2 * 16; len(points) != want {
		t.Fatalf("2x2x2 space has %d points, want %d", len(points), want)
	}
	job := sweepJob(2000)
	var ref *Result
	for _, workers := range []int{1, 4} {
		res, err := SweepCtx(t.Context(), points, Options{Workers: workers, RunFn: simRun(job, propCfg(topo))})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if len(res.Ranked) != len(ref.Ranked) {
			t.Fatalf("ranking length differs: %d vs %d", len(res.Ranked), len(ref.Ranked))
		}
		for i := range res.Ranked {
			a, b := ref.Ranked[i], res.Ranked[i]
			if a.Index != b.Index || a.Score != b.Score || a.Metrics != b.Metrics {
				t.Fatalf("rank %d differs between worker counts: %+v vs %+v", i, a, b)
			}
		}
	}
}

// TestEnumerateCapsExplosiveSpaces asserts the space cap fires as an
// error — before the enumerator materializes anything huge — instead of
// an out-of-memory kill.
func TestEnumerateCapsExplosiveSpaces(t *testing.T) {
	big := power5.Topology{Chips: 16, CoresPerChip: 16, SMTWays: 2}
	// 20 ranks: (19)!! = 654,729,075 pairings — must be rejected
	// arithmetically, not generated.
	done := make(chan error, 1)
	go func() {
		_, err := Enumerate(20, Space{Topology: big})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("explosive 20-rank space accepted")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Enumerate(20) did not return promptly; cap applied too late")
	}
	// A fixed pairing with a huge alphabet product is also capped.
	pairing := make(Pairing, 10)
	for c := range pairing {
		pairing[c] = [2]int{2 * c, 2*c + 1}
	}
	if _, err := Enumerate(20, Space{Topology: big, Pairings: []Pairing{pairing}}); err == nil {
		t.Fatal("3^20 priority space accepted")
	}
}
