// Quickstart: build an imbalanced 4-rank MPI-style job on the simulated
// POWER5, watch two ranks burn 70%+ of their time busy-waiting, then fix
// it by giving the heavy ranks a higher hardware thread priority — the
// paper's core idea in thirty lines.
package main

import (
	"context"
	"fmt"
	"log"

	smtbalance "repro"
)

func main() {
	// Two light ranks (P1, P3) and two heavy ranks (P2, P4); each core
	// hosts one of each.  Everyone meets at a barrier.
	job := smtbalance.Job{Name: "quickstart", Ranks: [][]smtbalance.Phase{
		{smtbalance.Compute("fpu", 50_000), smtbalance.Barrier()},
		{smtbalance.Compute("fpu", 220_000), smtbalance.Barrier()},
		{smtbalance.Compute("fpu", 50_000), smtbalance.Barrier()},
		{smtbalance.Compute("fpu", 220_000), smtbalance.Barrier()},
	}}

	// The paper's machine: one POWER5 chip, patched kernel, warm caches.
	ctx := context.Background()
	m, err := smtbalance.NewMachine(nil)
	if err != nil {
		log.Fatal(err)
	}

	// Reference: everything at the default medium priority.
	base, err := m.Run(ctx, job, smtbalance.PinInOrder(4))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("default priorities: %.0fµs, imbalance %.1f%%\n",
		base.Seconds*1e6, base.ImbalancePct)
	fmt.Println(base.Timeline(80))

	// The fix: the heavy rank of each core gets priority 6 (high), the
	// light one keeps 4 (medium) — a decode-cycle split of 7:1 while
	// both compute, and the light rank spins at low cost afterwards.
	balanced, err := m.Run(ctx, job, smtbalance.Placement{
		CPU: []int{0, 1, 2, 3},
		Priority: []smtbalance.Priority{
			smtbalance.PriorityMedium, smtbalance.PriorityHigh,
			smtbalance.PriorityMedium, smtbalance.PriorityHigh,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("heavy ranks favored: %.0fµs, imbalance %.1f%%\n",
		balanced.Seconds*1e6, balanced.ImbalancePct)
	fmt.Println(balanced.Timeline(80))

	fmt.Printf("speedup: %.1f%%\n",
		100*(base.Seconds-balanced.Seconds)/base.Seconds)
}
