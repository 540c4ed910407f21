// MetBench example: the paper's Section VII-A experiment built on the
// public API.  A master keeps four workers in lockstep; two workers carry
// a 4.5x larger load.  The four cases of Table IV are replayed: the
// reference (A), two balancing attempts (B, C) and the over-penalized
// failure (D) that inverts the imbalance — showing that the priority
// mechanism is powerful but must be dosed.
package main

import (
	"context"
	"fmt"
	"log"

	smtbalance "repro"
)

const (
	lightLoad  = 40_000
	heavyLoad  = 180_000
	iterations = 4
)

func job() smtbalance.Job {
	j := smtbalance.Job{Name: "metbench"}
	for r := 0; r < 4; r++ {
		n := int64(lightLoad)
		if r%2 == 1 { // P2 and P4 are the heavy workers
			n = heavyLoad
		}
		var prog []smtbalance.Phase
		for i := 0; i < iterations; i++ {
			prog = append(prog, smtbalance.Compute("fpu", n), smtbalance.Barrier())
		}
		j.Ranks = append(j.Ranks, prog)
	}
	return j
}

func main() {
	cases := []struct {
		name string
		prio []smtbalance.Priority
	}{
		{"A (reference, all medium)", []smtbalance.Priority{4, 4, 4, 4}},
		{"B (heavy 6, light 5)", []smtbalance.Priority{5, 6, 5, 6}},
		{"C (heavy 6, light 4)", []smtbalance.Priority{4, 6, 4, 6}},
		{"D (heavy 6, light 3 — too far)", []smtbalance.Priority{3, 6, 3, 6}},
	}
	j := job()
	ctx := context.Background()
	m, err := smtbalance.NewMachine(nil)
	if err != nil {
		log.Fatal(err)
	}
	var baseline float64
	for _, c := range cases {
		res, err := m.Run(ctx, j, smtbalance.Placement{
			CPU:      []int{0, 1, 2, 3},
			Priority: c.prio,
		})
		if err != nil {
			log.Fatal(err)
		}
		if baseline == 0 {
			baseline = res.Seconds
		}
		fmt.Printf("case %-32s exec %7.1fµs  imbalance %6.2f%%  vs A %+6.2f%%\n",
			c.name, res.Seconds*1e6, res.ImbalancePct,
			100*(baseline-res.Seconds)/baseline)
		for i, r := range res.Ranks {
			fmt.Printf("   P%d core%d prio %d: comp %6.2f%% sync %6.2f%%\n",
				i+1, r.Core+1, r.Priority, r.ComputePct, r.SyncPct)
		}
		fmt.Println(res.Timeline(84))
	}
}
