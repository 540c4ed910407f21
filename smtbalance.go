// Package smtbalance is a library for balancing HPC applications through
// smart allocation of multi-threaded processor resources, reproducing
// Boneti et al., "Balancing HPC Applications Through Smart Allocation of
// Resources in MT Processors" (IPDPS 2008).
//
// The paper's mechanism needs an IBM POWER5 — a dual-core, 2-way SMT chip
// whose hardware thread priorities skew the per-core decode-cycle
// allocation — plus a patched Linux kernel and an MPI runtime.  This
// library ships all of that as simulated substrates (see the internal
// packages) behind a small public API:
//
//   - Build an MPI-style Job from Compute/Barrier/Exchange phases.
//   - Pin ranks to the machine's hardware contexts with a Placement,
//     choosing each rank's hardware thread priority (0-7).  The default
//     machine is the paper's single chip (2 cores × 2-way SMT = 4
//     contexts); Options.Topology scales the node to N chips — each
//     with its own shared L2/L3 — and Topology.PinInOrder,
//     Topology.SuggestPlacement and ParsePlacement build placements for
//     it from (chip, core, context) coordinates.  Every paper table
//     assumes the 1×2×2 default.
//   - Run the job on a Machine; the Result carries the paper's metrics
//     (execution time, per-rank computation/synchronization shares, the
//     imbalance percentage) and a PARAVER-style timeline.
//   - Let the library balance for you: SuggestPlacement derives a static
//     priority plan from per-rank work, and Options.Policy attaches an
//     online balancing Policy — the paper's Section VIII balancer
//     (PaperDynamic), a topology-aware two-level balancer
//     (HierarchicalPolicy), a proportional controller (FeedbackPolicy),
//     or your own via RegisterPolicy/ParsePolicy.  Space.Policies lets a
//     sweep rank policies against each other, and Session.Balance closes
//     the paper's profile → re-place → retune loop in one call.
//   - Search instead of guessing: Machine.Sweep fans every placement ×
//     priority configuration out across a worker pool and ranks them by
//     a pluggable objective, and Machine.Optimize returns the best
//     configuration found — the by-hand procedure behind the paper's
//     Tables IV-VI, automated and parallel.  On multi-chip topologies
//     the space additionally covers packing co-scheduled pairs onto one
//     chip's L2 versus spreading them across chips, with chip- and
//     core-relabeling symmetries pruned.
//
// # The session-oriented API
//
// The paper's workflow is iterative — profile, re-place, re-prioritize,
// re-run — so the primary API is a long-lived Machine: build it once
// from the simulation Options with NewMachine, then call Machine.Run,
// Machine.Sweep (a streaming iterator with progress reporting),
// Machine.SweepAll and Machine.Optimize.  Every method takes a
// context.Context and cancels promptly, the Machine is safe for
// concurrent use, and — the simulator being deterministic — it memoizes
// results in a bounded cache keyed by a canonical hash of (topology,
// options, job, placement), so repeated configurations are served from
// memory (see CacheStats).  Machine.NewSession binds one job to the
// machine for the iterative loop itself: Session.Run records the last
// result and Session.SuggestFromLast turns its observed compute shares
// into the next placement to try.  The `mtbalance serve` subcommand
// exposes a Machine over an HTTP JSON API.
//
// The quickstart example:
//
//	job := smtbalance.Job{Name: "demo", Ranks: [][]smtbalance.Phase{
//	    {smtbalance.Compute("fpu", 50000), smtbalance.Barrier()},
//	    {smtbalance.Compute("fpu", 200000), smtbalance.Barrier()},
//	    {smtbalance.Compute("fpu", 50000), smtbalance.Barrier()},
//	    {smtbalance.Compute("fpu", 200000), smtbalance.Barrier()},
//	}}
//	m, err := smtbalance.NewMachine(nil) // the paper's 1×2×2 POWER5
//	res, err := m.Run(ctx, job, smtbalance.PinInOrder(4))
//
// See the examples/ directory for complete programs and internal/
// experiments for the reproduction of every table and figure of the paper.
package smtbalance

import (
	"fmt"

	"repro/internal/hwpri"
)

// Priority is a POWER5 hardware thread priority (0..7).  It controls the
// share of the core's decode cycles a context receives relative to its
// sibling: for priorities above 1 the arbitration window is R =
// 2^(|X-Y|+1) cycles, of which the lower-priority thread gets exactly 1.
type Priority int

// The eight hardware thread priorities.
const (
	// PriorityOff (0) shuts the context off (hypervisor only).
	PriorityOff Priority = iota
	// PriorityVeryLow (1) receives only leftover decode cycles (OS only).
	PriorityVeryLow
	// PriorityLow (2) is user-settable.
	PriorityLow
	// PriorityMediumLow (3) is user-settable.
	PriorityMediumLow
	// PriorityMedium (4) is the default for running software.
	PriorityMedium
	// PriorityMediumHigh (5) requires the OS (or the paper's procfs patch).
	PriorityMediumHigh
	// PriorityHigh (6) requires the OS (or the paper's procfs patch).
	PriorityHigh
	// PriorityVeryHigh (7) runs the core in single-thread mode
	// (hypervisor only; the sibling context is taken offline).
	PriorityVeryHigh
)

// String returns the architectural name of the priority.
func (p Priority) String() string { return hwpri.Priority(p).String() }

// Valid reports whether p is one of the eight architected priorities.
func (p Priority) Valid() bool { return p >= 0 && p < 8 }

// DecodeShare returns the fraction of decode cycles granted to each of
// two sibling contexts running at priorities a and b (Tables II and III
// of the paper).  It is the static allocation; leftover-mode dynamics are
// not reflected.
func DecodeShare(a, b Priority) (shareA, shareB float64, err error) {
	if !a.Valid() || !b.Valid() {
		return 0, 0, fmt.Errorf("smtbalance: invalid priorities %d, %d", a, b)
	}
	al := hwpri.Alloc(hwpri.Priority(a), hwpri.Priority(b))
	return al.Share(0), al.Share(1), nil
}

// UserSettable reports whether unprivileged code may set p via the
// or-nop interface (only priorities 2, 3 and 4 — the reason the paper
// patches the kernel to reach 1, 5 and 6).
func UserSettable(p Priority) bool {
	return p.Valid() && hwpri.CanSet(hwpri.ProblemState, hwpri.Priority(p))
}

// OSSettable reports whether the operating system may set p (1..6).
func OSSettable(p Priority) bool {
	return p.Valid() && hwpri.CanSet(hwpri.Supervisor, hwpri.Priority(p))
}
