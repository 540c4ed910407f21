package smtbalance

import (
	"reflect"
	"testing"
)

// Metamorphic tests: instead of pinning absolute outputs, each test
// applies a transformation to a scenario whose effect on the result is
// known — a rank relabeling, a load rescaling, a degenerate parameter —
// and asserts the relation.  These catch whole-subsystem drift (an
// enumeration bug, a normalization bug) that absolute golden values,
// generated by the same code, cannot.

// permuteRanks relabels a job's ranks by perm (new rank i runs old rank
// perm[i]'s program).
func permuteRanks(job Job, perm []int) Job {
	out := Job{Name: job.Name + "-permuted"}
	for _, p := range perm {
		out.Ranks = append(out.Ranks, job.Ranks[p])
	}
	return out
}

// Permuting rank labels cannot change the optimum: the sweep enumerates
// every pairing, so the best achievable configuration of a job depends
// on the multiset of programs, not their order.  Asserted on the
// trivially symmetric uniform scenario and on the asymmetric ramp.
func TestMetamorphicPermutedRanksSameOptimum(t *testing.T) {
	topo := DefaultTopology()
	m, err := NewMachine(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"uniform,base=5000,iters=3", "ramp,base=5000,iters=3,skew=4"} {
		t.Run(shortScenarioName(spec), func(t *testing.T) {
			job, err := mustScenarioJob(t, spec, topo)
			if err != nil {
				t.Fatal(err)
			}
			permuted := permuteRanks(job, []int{2, 0, 3, 1})
			// A two-letter priority alphabet keeps the space (3 pairings ×
			// 2^4 priorities) small; permutation invariance holds for any
			// fixed alphabet, so nothing is lost.
			space := Space{Priorities: []Priority{PriorityMediumLow, PriorityMedium}}
			best := func(j Job) SweepEntry {
				sw, err := m.SweepAll(t.Context(), j, space, &SweepOptions{Top: 1})
				if err != nil {
					t.Fatal(err)
				}
				b, err := sw.Best()
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			a, b := best(job), best(permuted)
			if a.Cycles != b.Cycles {
				t.Errorf("optimum moved under rank relabeling: %d vs %d cycles", a.Cycles, b.Cycles)
			}
		})
	}
}

// Scaling every load by a constant preserves the policy ranking: twice
// the work changes every absolute time but not which balancer wins the
// shape.  (The per-entry speedups shift — cache warmup is a smaller
// fraction of a longer run — but order must survive.)
func TestMetamorphicLoadScalingPreservesRanking(t *testing.T) {
	topo := DefaultTopology()
	m, err := NewMachine(nil)
	if err != nil {
		t.Fatal(err)
	}
	ranking := func(base string) []string {
		job, err := mustScenarioJob(t, "step,iters=6,skew=5,base="+base, topo)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := m.SweepAll(t.Context(), job, Space{
			FixPairing: true,
			Priorities: []Priority{PriorityMedium},
			Policies:   []Policy{StaticPolicy{}, &PaperDynamic{}, &FeedbackPolicy{}},
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var order []string
		for _, e := range sw.Entries {
			order = append(order, e.Policy)
		}
		return order
	}
	small, large := ranking("6000"), ranking("12000")
	if !reflect.DeepEqual(small, large) {
		t.Errorf("policy ranking flipped under 2x load scaling:\nbase=6000:  %v\nbase=12000: %v", small, large)
	}
}

// A zero-skew ramp IS the uniform scenario: skew=1 interpolates between
// base and base, so the generated programs — and their engine-level
// cache keys, which exclude the job name — must match byte for byte.
func TestMetamorphicZeroSkewRampEqualsUniform(t *testing.T) {
	topo := DefaultTopology()
	ramp, err := mustScenarioJob(t, "ramp,skew=1,base=7000,iters=4", topo)
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := mustScenarioJob(t, "uniform,base=7000,iters=4", topo)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ramp.Ranks, uniform.Ranks) {
		t.Errorf("ramp(skew=1) programs differ from uniform's:\nramp:    %+v\nuniform: %+v", ramp.Ranks, uniform.Ranks)
	}
	if a, b := envJobKey(Options{Topology: topo}, ramp), envJobKey(Options{Topology: topo}, uniform); a != b {
		t.Errorf("ramp(skew=1) and uniform hash to different cache keys: %x vs %x", a[:8], b[:8])
	}
}

// The bursty amp=0 degenerate case collapses to uniform the same way.
func TestMetamorphicZeroAmpBurstyEqualsUniform(t *testing.T) {
	topo := DefaultTopology()
	bursty, err := mustScenarioJob(t, "bursty,amp=0.0000001,base=7000,iters=4", topo)
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := mustScenarioJob(t, "uniform,base=7000,iters=4", topo)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bursty.Ranks, uniform.Ranks) {
		t.Error("bursty with vanishing amplitude differs from uniform")
	}
}
