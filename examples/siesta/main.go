// SIESTA example: the paper's Section VII-C experiment — a real
// application whose bottleneck rank changes across iterations, so no
// static priority assignment fits every phase.  The example compares the
// paper's static cases against the library's dynamic OS-level balancer
// (the Section VIII future-work proposal).
package main

import (
	"context"
	"fmt"
	"log"

	smtbalance "repro"
)

const (
	unitLoad   = 80_000
	iterations = 24
	block      = 6 // the bottleneck persists this many iterations
)

var baseWeights = []float64{0.80, 0.74, 0.82, 0.97}

// bottleneck returns the rank carrying extra load during iteration i:
// mostly the last rank, but P1..P3 take turns — the SIESTA behaviour.
func bottleneck(i int) int {
	switch (i / block) % 6 {
	case 0, 2, 4:
		return 3
	case 1:
		return 0
	case 3:
		return 1
	default:
		return 2
	}
}

func job() smtbalance.Job {
	j := smtbalance.Job{Name: "siesta"}
	for r := 0; r < 4; r++ {
		var prog []smtbalance.Phase
		for i := 0; i < iterations; i++ {
			w := baseWeights[r]
			if bottleneck(i) == r {
				w *= 1.55
			}
			// Mostly irregular, partly memory-bound work — a real
			// code, not a synthetic unit stressor.
			prog = append(prog,
				smtbalance.Compute("branchy", int64(w*unitLoad)),
				smtbalance.Compute("mem", int64(w*unitLoad/16)),
				smtbalance.Barrier(),
			)
		}
		j.Ranks = append(j.Ranks, prog)
	}
	return j
}

func main() {
	j := job()
	// Pair the similar ranks P2/P3 on one core and P1/P4 on the other,
	// as the paper's case C does.
	cpus := []int{2, 0, 1, 3}
	ctx := context.Background()
	m, err := smtbalance.NewMachine(nil)
	if err != nil {
		log.Fatal(err)
	}

	run := func(label string, prio []smtbalance.Priority, pol smtbalance.Policy) float64 {
		res, err := m.RunPolicy(ctx, j, smtbalance.Placement{CPU: cpus, Priority: prio}, pol)
		if err != nil {
			log.Fatal(err)
		}
		extra := ""
		if pol != nil {
			extra = fmt.Sprintf("  (%d priority moves)", res.BalancerMoves)
		}
		fmt.Printf("%-28s exec %8.1fµs  imbalance %5.1f%%%s\n",
			label, res.Seconds*1e6, res.ImbalancePct, extra)
		return res.Seconds
	}

	ref := run("A: no balancing", []smtbalance.Priority{4, 4, 4, 4}, nil)
	run("C: static, favor P4 (+1)", []smtbalance.Priority{4, 4, 4, 5}, nil)
	run("D: static, favor P4 (+2)", []smtbalance.Priority{4, 4, 4, 6}, nil)
	dyn := run("dynamic OS balancer", []smtbalance.Priority{4, 4, 4, 4},
		&smtbalance.PaperDynamic{})

	fmt.Printf("\ndynamic vs no balancing: %+.1f%%\n", 100*(ref-dyn)/ref)
	fmt.Println("\nThe static cases help only while their guess matches the current")
	fmt.Println("bottleneck; the dynamic balancer follows it (Section VIII).")
}
