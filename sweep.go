package smtbalance

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/sweep"
)

// Space describes the placement × priority search space of a sweep: the
// cross product of every distinct way to co-schedule the job's ranks on
// the machine's SMT cores (chip-relabeling, core-relabeling and
// sibling-context symmetries pruned) with a per-rank priority alphabet.
// On the default machine a 4-rank job has 3 distinct pairings; the
// user-settable alphabet {2,3,4} then yields 243 configurations, the
// OS-settable alphabet {2..6} 1875.  The machine itself is the sweeping
// Machine's topology: on a 2×2×2 node the same 4-rank job gains a
// second core map per pairing (pairs packed on one chip's L2 or spread
// across chips), doubling the space.
type Space struct {
	// Priorities is the per-rank priority alphabet; nil means the
	// user-settable set (PriorityLow, PriorityMediumLow, PriorityMedium).
	Priorities []Priority
	// FixPairing keeps the job's in-order placement (ranks 2c and 2c+1
	// share core c) instead of enumerating every pairing and core map —
	// the space to use when ranks are already placed and only
	// priorities may move.  On multi-chip topologies this fixes the
	// core map too: the pairs stay on cores 0..n/2-1.
	FixPairing bool
	// Policies, when non-empty, adds a balancing-policy axis: every
	// placement × priority point is evaluated once per policy, with a
	// fresh per-run policy instance attached, and the ranking covers the
	// full policy × placement × priority cross product (SweepEntry.Policy
	// identifies each entry's policy).  Policies must implement
	// PolicyBinder; use StaticPolicy{} as the no-balancing control.  An
	// empty slice sweeps under the machine's own Options.Policy when one
	// is set, and with no policy at all otherwise — Policies may only be
	// non-empty on a policy-less machine.
	Policies []Policy
}

// UserSettableSpace is the space reachable without any kernel support:
// all pairings, priorities 2-4 (Section III-B).
func UserSettableSpace() Space { return Space{} }

// OSSettableSpace is the space the paper's patched kernel unlocks: all
// pairings, priorities 2-6 (Section VI; VeryLow is excluded because a
// leftover-only rank starves).
func OSSettableSpace() Space {
	var prios []Priority
	for _, p := range sweep.OSAlphabet() {
		prios = append(prios, Priority(p))
	}
	return Space{Priorities: prios}
}

// Objective scores sweep runs; lower is better.  Scores combine two
// normalized terms: execution time relative to the sweep's fastest run
// (>= 1) weighted by CyclesWeight, and the imbalance percentage as a
// fraction (0..1) weighted by ImbalanceWeight.  The zero value minimizes
// execution time.
type Objective struct {
	// CyclesWeight weights normalized execution time.
	CyclesWeight float64
	// ImbalanceWeight weights the imbalance fraction.
	ImbalanceWeight float64
}

// MinimizeCycles ranks configurations by execution time — the paper's
// headline metric.
func MinimizeCycles() Objective { return Objective{CyclesWeight: 1} }

// MinimizeImbalance ranks configurations by the imbalance metric.
func MinimizeImbalance() Objective { return Objective{ImbalanceWeight: 1} }

// WeightedObjective blends the two, e.g. WeightedObjective(1, 0.5)
// accepts a slightly slower run if it is much better balanced.
func WeightedObjective(cyclesWeight, imbalanceWeight float64) Objective {
	return Objective{CyclesWeight: cyclesWeight, ImbalanceWeight: imbalanceWeight}
}

func (o Objective) inner() sweep.Objective {
	if o.CyclesWeight == 0 && o.ImbalanceWeight == 0 {
		return sweep.MinCycles()
	}
	return sweep.Weighted(o.CyclesWeight, o.ImbalanceWeight)
}

// SweepOptions tunes a sweep.
type SweepOptions struct {
	// Workers caps concurrent simulator runs; 0 means one per CPU, 1
	// forces a serial sweep.  The ranking is identical for every value.
	Workers int
	// Top truncates the ranking to the best K configurations; 0 keeps
	// everything.
	Top int
	// Screen, when positive, turns the sweep into a two-level coarse →
	// fine search: every placement × priority point is first ranked by
	// the analytical cost predictor (decode-share curves plus the
	// machine's communication tiers — no simulation), and only the
	// Screen best-predicted points, a guard band of the next ones, and
	// the predictions tied with the band's cutoff are simulated.  The
	// simulated shortlist ranks exactly as the exhaustive sweep ranks
	// those same configurations — identical runs, identical cache keys,
	// identical tie-breaking — so screening trades coverage of the
	// space's (predicted) losers for wall-clock, never score fidelity.
	// The winner matches the exhaustive sweep's whenever the predictor
	// ranks it within the frontier, which holds for the golden workloads
	// (see docs/perf.md for the recorded gate).  0, the default, sweeps
	// exhaustively.  Sweeps with a policy axis screen the placement
	// points once and evaluate the shortlist under every policy.
	Screen int
	// Objective scores each run; the zero value minimizes cycles.
	Objective Objective
	// Progress, if set, observes the evaluation as it runs with
	// (evaluated, total) configuration counts.  Calls are serialized
	// but follow run completion order.
	Progress func(evaluated, total int)
}

// SweepEntry is one ranked configuration of a finished sweep.
type SweepEntry struct {
	// Placement is the configuration (CPU map and priorities).
	Placement Placement
	// Policy is the canonical identity (PolicyID) of the balancing
	// policy this entry ran under; "" when the sweep had no policy axis.
	Policy string
	// Cycles is the run's simulated cycle count.
	Cycles int64
	// Seconds is the run's simulated wall-clock time.
	Seconds float64
	// ImbalancePct is the paper's max-sync-% imbalance metric.
	ImbalancePct float64
	// Score is the objective value; entries are sorted by it ascending.
	Score float64
}

// SweepResult is a finished sweep: the objective's ranking over every
// configuration evaluated.
type SweepResult struct {
	// Entries is the ranking, best first.  The order is total (ties
	// break on cycles, then enumeration order), so it is byte-identical
	// whether the sweep ran on one worker or many.
	Entries []SweepEntry
	// Evaluated is the number of configurations run.
	Evaluated int
	// Screened is the number of placement × priority points the
	// analytical predictor eliminated before simulation (times the
	// policy-axis width, when one was swept); 0 on exhaustive sweeps.
	// Evaluated + Screened is the full space size.
	Screened int
	// Workers is the pool size actually used.
	Workers int
}

// Best returns the top-ranked configuration.
func (r *SweepResult) Best() (SweepEntry, error) {
	if len(r.Entries) == 0 {
		return SweepEntry{}, fmt.Errorf("smtbalance: sweep ranked no configurations")
	}
	return r.Entries[0], nil
}

// WriteCSV writes the ranking as CSV with a header row:
// rank,cpus,priorities,cycles,seconds,imbalance_pct,score.  Sweeps over
// Space.Policies gain a policy column after rank (header
// rank,policy,cpus,...); policy-less rankings keep the original shape
// byte for byte.
func (r *SweepResult) WriteCSV(w io.Writer) error {
	withPolicy := false
	for _, e := range r.Entries {
		if e.Policy != "" {
			withPolicy = true
			break
		}
	}
	header := "rank,cpus,priorities,cycles,seconds,imbalance_pct,score"
	if withPolicy {
		header = "rank,policy,cpus,priorities,cycles,seconds,imbalance_pct,score"
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	for i, e := range r.Entries {
		cpus := make([]string, len(e.Placement.CPU))
		prios := make([]string, len(e.Placement.Priority))
		for j, c := range e.Placement.CPU {
			cpus[j] = fmt.Sprint(c)
		}
		for j, p := range e.Placement.Priority {
			prios[j] = fmt.Sprint(int(p))
		}
		policyCol := ""
		if withPolicy {
			// Policy IDs contain commas between parameters, so the
			// column is always quoted — RFC 4180 style (inner quotes
			// doubled), which encoding/csv and spreadsheets both parse.
			policyCol = csvQuote(e.Policy) + ","
		}
		_, err := fmt.Fprintf(w, "%d,%s%s,%s,%d,%.9f,%.4f,%.6f\n",
			i+1, policyCol, strings.Join(cpus, " "), strings.Join(prios, " "),
			e.Cycles, e.Seconds, e.ImbalancePct, e.Score)
		if err != nil {
			return err
		}
	}
	return nil
}
