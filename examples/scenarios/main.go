// The scenarios example walks the scenario subsystem end to end: parse
// declarative imbalance shapes with ParseScenario, evaluate every
// balancing policy on every shape with the evaluation-matrix engine,
// and close the loop on the winning shape with a scenario-backed
// Session.  Where the paper compared balancers on a handful of
// hand-built cases, the matrix answers "which balancer wins on which
// imbalance shape?" in one call.
package main

import (
	"context"
	"fmt"
	"log"

	smtbalance "repro"
)

func main() {
	ctx := context.Background()

	// The scenario axis: one spec string per imbalance shape, in the
	// same name,key=value grammar policies use.  A step (one straggler
	// rank), a drifting bottleneck, and seeded random bursts.
	var spec smtbalance.MatrixSpec
	for _, s := range []string{
		"step,skew=5,iters=8",
		"phaseshift,skew=5,iters=8,period=2",
		"bursty,amp=3,seed=42,iters=8",
	} {
		sc, err := smtbalance.ParseScenario(s)
		if err != nil {
			log.Fatal(err)
		}
		spec.Scenarios = append(spec.Scenarios, sc)
	}

	// The policy axis: the static control is implicit; rank the paper's
	// balancer against the feedback controller.
	spec.Policies = []smtbalance.Policy{
		&smtbalance.PaperDynamic{},
		&smtbalance.FeedbackPolicy{},
	}

	// Evaluate (policies × scenarios on the default 1×2×2 machine) and
	// stream entries as cells finish.  Every entry's Speedup is
	// normalized against its cell's static control, so scores compare
	// across shapes.
	fmt.Println("policy × scenario evaluation (speedup vs no balancing):")
	mx := smtbalance.NewMatrix()
	for e, err := range mx.Eval(ctx, spec, nil) {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-38s %-46s %.4f\n", e.Scenario, e.Policy, e.Speedup)
	}

	// The same engine replays the finished runs from its machine's
	// result cache — EvalAll here costs no simulation at all.
	res, err := mx.EvalAll(ctx, spec, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d entries over %d cells\n", len(res.Entries), res.Cells)

	// Close the paper's loop on one shape: a scenario-backed session
	// profiles the step job, re-places it from the observed compute
	// shares, and retunes online under the paper's balancer.
	m, err := smtbalance.NewMachine(nil)
	if err != nil {
		log.Fatal(err)
	}
	session, err := m.NewScenarioSession(spec.Scenarios[0])
	if err != nil {
		log.Fatal(err)
	}
	tuned, err := session.Balance(ctx, &smtbalance.PaperDynamic{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nBalance on %s: %d cycles, imbalance %.2f%%, %d priority moves\n",
		smtbalance.ScenarioID(spec.Scenarios[0]), tuned.Cycles, tuned.ImbalancePct, tuned.BalancerMoves)
}
