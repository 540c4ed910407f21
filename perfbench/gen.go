package main

import (
	"fmt"
	"math/rand/v2"

	smt "repro"
	"repro/internal/mpisim"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/workload"
)

// jobSpec is a generated job in a form the benchmark can hand to every
// layer: the public Job, the simulator's mpisim.Job and the serve wire
// format are all built from it, so a direct mpisim run and a Machine run
// of one op simulate the same program.
type jobSpec struct {
	Name  string
	Kinds []string  // kernel kind per rank
	Loads [][]int64 // instructions per rank per iteration
	// Exchange > 0 gives the BT-MZ shape: every compute phase is followed
	// by a ring exchange of Exchange bytes and the program ends in one
	// barrier.  Exchange == 0 gives the scenario shape: compute+barrier
	// per iteration.
	Exchange int64
}

func (j jobSpec) ranks() int { return len(j.Kinds) }

// ringPeers mirrors the BT-MZ ring: a 2-rank ring collapses to one peer.
func ringPeers(r, n int) []int {
	prev, next := (r+n-1)%n, (r+1)%n
	if prev == next {
		return []int{next}
	}
	return []int{prev, next}
}

func (j jobSpec) public() smt.Job {
	job := smt.Job{Name: j.Name}
	n := j.ranks()
	for r := range n {
		var prog []smt.Phase
		for _, load := range j.Loads[r] {
			prog = append(prog, smt.Compute(j.Kinds[r], load))
			if j.Exchange > 0 {
				prog = append(prog, smt.Exchange(j.Exchange, ringPeers(r, n)...))
			} else {
				prog = append(prog, smt.Barrier())
			}
		}
		if j.Exchange > 0 {
			prog = append(prog, smt.Barrier())
		}
		job.Ranks = append(job.Ranks, prog)
	}
	return job
}

func (j jobSpec) sim() (*mpisim.Job, error) {
	job := &mpisim.Job{Name: j.Name}
	n := j.ranks()
	for r := range n {
		kind, err := workload.ParseKind(j.Kinds[r])
		if err != nil {
			return nil, err
		}
		var prog mpisim.Program
		for _, load := range j.Loads[r] {
			prog = append(prog, mpisim.Compute(workload.Load{Kind: kind, N: load}))
			if j.Exchange > 0 {
				prog = append(prog, mpisim.Exchange(j.Exchange, ringPeers(r, n)...))
			} else {
				prog = append(prog, mpisim.Barrier())
			}
		}
		if j.Exchange > 0 {
			prog = append(prog, mpisim.Barrier())
		}
		job.Ranks = append(job.Ranks, prog)
	}
	return job, nil
}

func (j jobSpec) wire() serve.Job {
	job := serve.Job{Name: j.Name}
	n := j.ranks()
	for r := range n {
		var prog []serve.Phase
		for _, load := range j.Loads[r] {
			prog = append(prog, serve.Phase{Compute: &serve.Compute{Kind: j.Kinds[r], N: load}})
			if j.Exchange > 0 {
				prog = append(prog, serve.Phase{Exchange: &serve.Exchange{Bytes: j.Exchange, Peers: ringPeers(r, n)}})
			} else {
				prog = append(prog, serve.Phase{Barrier: true})
			}
		}
		if j.Exchange > 0 {
			prog = append(prog, serve.Phase{Barrier: true})
		}
		job.Ranks = append(job.Ranks, prog)
	}
	return job
}

// shapeJob builds a job of one of the built-in scenario shapes from the
// same internal/scenario load generators smtbalance.ParseScenario uses,
// with the bimodal shape's odd ranks on kind2.
func shapeJob(shape, kind, kind2 string, ranks, iters int, base int64, seed uint64) jobSpec {
	var loads scenario.Loads
	switch shape {
	case "ramp":
		loads = scenario.Ramp(ranks, iters, base, 4)
	case "step":
		loads = scenario.Step(ranks, iters, base, 4, 0)
	case "phaseshift":
		loads = scenario.PhaseShift(ranks, iters, base, 4, 2)
	case "bursty":
		loads = scenario.Bursty(ranks, iters, base, 3, seed)
	default: // uniform, bimodal
		loads = scenario.Uniform(ranks, iters, base)
	}
	j := jobSpec{Name: fmt.Sprintf("%s,kind=%s,base=%d", shape, kind, base), Loads: loads}
	for r := range ranks {
		k := kind
		if shape == "bimodal" && r%2 == 1 {
			k = kind2
		}
		j.Kinds = append(j.Kinds, k)
	}
	return j
}

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

var (
	topo1 = smt.Topology{Chips: 1, CoresPerChip: 2, SMTWays: 2}
	topo2 = smt.Topology{Chips: 2, CoresPerChip: 2, SMTWays: 2}
)

// lockTemplate is one entry of run-lockstep's deck.  Bases are sized so
// every template takes roughly the same host time (about 100 ms on a
// 2-CPU x86 host), which keeps op_p50_ms and op_p90_ms inside one mode
// of the latency distribution instead of on the edge between fast
// compute jobs and slow memory jobs.
type lockTemplate struct {
	shape, kind, kind2 string
	topo               smt.Topology
	policy             string
	base               int64
}

// lockDeck is run-lockstep's op mix: the built-in scenario shapes on the
// 1×2×2 and 2×2×2 topologies under every built-in policy, half of them
// (by host time) memory-side jobs (mem, l2, bimodal).
var lockDeck = []lockTemplate{
	{"uniform", "fpu", "", topo1, "", 58700},
	{"ramp", "fpu", "", topo1, "static", 14350},
	{"bursty", "fpu", "", topo1, "dyn", 14150},
	{"phaseshift", "fpu", "", topo1, "hier", 13950},
	{"step", "fpu", "", topo2, "feedback", 10300},
	{"uniform", "fpu", "", topo2, "dyn", 26450},
	{"ramp", "fpu", "", topo2, "", 7080},
	{"bursty", "fpu", "", topo2, "hier", 6450},
	{"uniform", "mem", "", topo1, "", 4190},
	{"uniform", "l2", "", topo1, "feedback", 44100},
	{"bimodal", "fpu", "mem", topo1, "dyn", 2590},
	{"ramp", "l2", "", topo1, "static", 13700},
	{"uniform", "mem", "", topo2, "hier", 2115},
	{"bimodal", "fpu", "mem", topo2, "", 1060},
	{"ramp", "l2", "", topo2, "dyn", 5580},
	{"bimodal", "l2", "mem", topo2, "feedback", 1190},
}

// lockOp is one run-lockstep operation: a cold Machine.Run/RunPolicy.
type lockOp struct {
	Template int
	Topo     smt.Topology
	Policy   string
	Job      jobSpec
}

// lockOps returns the first n ops of run-lockstep's sequence for seed:
// the deck in a seeded order, round after round.  Each template gets a
// seeded base shift of up to 3% and one more instruction per round, so
// every op has a distinct cache key while its cost stays put.
func lockOps(seed uint64, n int) []lockOp {
	rng := newRand(seed, 1)
	shift := make([]int64, len(lockDeck))
	for i, t := range lockDeck {
		shift[i] = rng.Int64N(t.base*3/100 + 1)
	}
	var ops []lockOp
	for round := int64(0); len(ops) < n; round++ {
		for _, ti := range rng.Perm(len(lockDeck)) {
			if len(ops) == n {
				break
			}
			t := lockDeck[ti]
			job := shapeJob(t.shape, t.kind, t.kind2, t.topo.Contexts(), 5, t.base+shift[ti]+round, seed+uint64(round))
			ops = append(ops, lockOp{Template: ti, Topo: t.topo, Policy: t.policy, Job: job})
		}
	}
	return ops
}

// sweepJob returns sweep-phaseskip's i-th job for seed: a 4-rank BT-MZ
// shape (zone weights 0.18/0.24/0.67/1.00 of a unit load at 1% of the
// Table V size, each jittered by up to ±3%) over 36 iterations, on the
// compute kernels fpu/fxu/l1/l2 (one per rank).  The kernel order is
// fixed, yet how many lockstep cycles a job needs before phase-skip
// engages still varies by about ±20% from job to job, even for a 0.3%
// jitter, so a run times many ops and reports their median.
func sweepJob(seed uint64, i int) jobSpec {
	rng := newRand(seed, 2+uint64(i))
	zones := []float64{0.18, 0.24, 0.67, 1.00}
	j := jobSpec{Name: fmt.Sprintf("bt-mz-%d-%d", seed, i), Kinds: []string{"fpu", "fxu", "l1", "l2"}, Exchange: 16 << 10}
	for _, z := range zones {
		n := int64(z * float64(sweepUnitLoad) * (0.97 + 0.06*rng.Float64()))
		loads := make([]int64, sweepIters)
		for it := range loads {
			loads[it] = n
		}
		j.Loads = append(j.Loads, loads)
	}
	return j
}

const (
	sweepUnitLoad = 2_200
	sweepIters    = 36
)

// serveKey is one distinct /v1/run request of the serve probe.
type serveKey struct {
	Job    jobSpec
	Policy string
}

// serveKeys returns n distinct small 4-rank jobs (a few milliseconds of
// simulation each) for seed, starting at index from: compute kernels,
// scenario shapes and policies vary per key.
func serveKeys(seed uint64, from, n int) []serveKey {
	shapes := []string{"uniform", "ramp", "step", "phaseshift"}
	kinds := []string{"fpu", "fxu", "l1"}
	policies := []string{"", "dyn", "feedback"}
	keys := make([]serveKey, 0, n)
	for i := from; i < from+n; i++ {
		rng := newRand(seed, 1<<32+uint64(i))
		shape := shapes[rng.IntN(len(shapes))]
		job := shapeJob(shape, kinds[rng.IntN(len(kinds))], "", 4, 4, serveBase, seed)
		// Phase b (rank b/4, iteration b%4) gains bit b of i: a distinct
		// cache key per index at a cost of at most 16 instructions.
		for b := range 16 {
			job.Loads[b/4][b%4] += int64(i>>b) & 1
		}
		job.Name = fmt.Sprintf("%s,key=%d", job.Name, i)
		keys = append(keys, serveKey{Job: job, Policy: policies[rng.IntN(len(policies))]})
	}
	return keys
}

const serveBase = 600
