package main

import (
	"context"
	"testing"

	smt "repro"
	"repro/internal/hwpri"
	"repro/internal/mpisim"
	"repro/internal/power5"
	"repro/internal/workload"
)

// TestFinalWindowNeverRetires pins the model property checkResult's
// one-window allowance rests on.  A compute phase ends when its
// instruction stream runs dry, not when its last instruction retires.
// Instructions still in flight then retire under the rank's next phase,
// but after its final phase the run ends and they never do.  A lone rank
// never waits, so it retires no spin instructions that could hide the
// shortfall.
func TestFinalWindowNeverRetires(t *testing.T) {
	window := int64(power5.DefaultConfig().WindowSize)
	cfg := simConfig(smt.Options{NoOSNoise: true})
	pl := mpisim.Placement{CPU: []int{0}, Prio: []hwpri.Priority{hwpri.Medium}}
	retired := func(loads ...int64) int64 {
		t.Helper()
		var prog mpisim.Program
		for _, n := range loads {
			prog = append(prog, mpisim.Compute(workload.Load{Kind: workload.FPU, N: n}))
		}
		res, err := mpisim.RunCtx(context.Background(), &mpisim.Job{Name: "retire", Ranks: []mpisim.Program{prog}}, pl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Ranks[0].Instructions
	}
	const n = 20_000
	for _, loads := range [][]int64{{n}, {n, n}, {n, n, n}} {
		var declared int64
		for _, l := range loads {
			declared += l
		}
		got := retired(loads...)
		if got >= declared || got < declared-window {
			t.Errorf("%d phases of %d: retired %d, want within one %d-entry window below %d", len(loads), n, got, window, declared)
		}
	}
	// Every phase but the last retires in full: more phases lose no more.
	if one, three := retired(n), retired(n, n, n); n-one != 3*n-three {
		t.Errorf("shortfall %d after one phase, %d after three", n-one, 3*n-three)
	}
}
