package smtbalance

import (
	"context"
	"fmt"
	"io"
	"iter"
	"strings"
	"sync"
)

// MatrixSpec describes an evaluation matrix: every policy evaluated on
// every scenario on every topology.  The paper compares balancers on a
// handful of hand-built cases; the matrix is that comparison
// industrialized — "characterize any balancer on any imbalance shape".
type MatrixSpec struct {
	// Scenarios is the imbalance-shape axis (at least one).
	Scenarios []Scenario
	// Policies is the balancer axis (at least one).  Every policy must
	// implement PolicyBinder (cell evaluation fans policies through the
	// sweep pool, so each run needs a fresh bound instance) and policy
	// identities must be distinct.  If no policy has identity "static",
	// StaticPolicy is prepended automatically: it is the control every
	// cell's speedups are normalized against.
	Policies []Policy
	// Topologies is the machine axis; nil means the default 1×2×2.
	Topologies []Topology
}

// MatrixOptions tunes an evaluation.
type MatrixOptions struct {
	// Workers caps concurrent simulator runs within a cell; 0 means one
	// per CPU, 1 forces serial evaluation.  Results are identical for
	// every value.
	Workers int
	// Progress, if set, observes cell completions with (done, total)
	// cell counts.
	Progress func(done, total int)
}

// MatrixEntry is one (topology, scenario, policy) evaluation.
type MatrixEntry struct {
	// Topology is the cell's topology string ("1x2x2").
	Topology string
	// Scenario is the cell's canonical ScenarioID.
	Scenario string
	// Policy is the entry's canonical PolicyID.
	Policy string
	// Cycles, Seconds and ImbalancePct are the run's metrics, with the
	// job pinned in order at medium priority — the pure policy
	// comparison, where only online balancing differentiates entries.
	Cycles int64
	// Seconds is the run's simulated wall-clock time.
	Seconds float64
	// ImbalancePct is the paper's max-sync-% imbalance metric.
	ImbalancePct float64
	// Speedup is the entry's score: the cell's StaticPolicy execution
	// time divided by this entry's.  Normalizing every cell against its
	// own static control makes the score comparable across scenarios
	// and topologies — 1.1 means "this policy beats no-balancing by 10%
	// here", whatever the cell's absolute scale.  The static entry
	// itself scores exactly 1.
	Speedup float64
}

// MatrixResult is a finished evaluation matrix.
type MatrixResult struct {
	// Entries holds one entry per (topology, scenario, policy), in spec
	// order — topology-major, then scenario, then policy — so the
	// rendering is deterministic whatever the worker count.
	Entries []MatrixEntry
	// Cells counts the (topology, scenario) cells evaluated.
	Cells int
}

// WriteCSV writes the matrix with a header row:
// topology,scenario,policy,cycles,seconds,imbalance_pct,speedup_vs_static.
// Scenario and policy identities contain commas, so both columns are
// RFC 4180-quoted.
func (r *MatrixResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "topology,scenario,policy,cycles,seconds,imbalance_pct,speedup_vs_static"); err != nil {
		return err
	}
	for _, e := range r.Entries {
		_, err := fmt.Fprintf(w, "%s,%s,%s,%d,%.9f,%.4f,%.6f\n",
			e.Topology, csvQuote(e.Scenario), csvQuote(e.Policy),
			e.Cycles, e.Seconds, e.ImbalancePct, e.Speedup)
		if err != nil {
			return err
		}
	}
	return nil
}

// csvQuote renders a field RFC 4180-quoted (inner quotes doubled).
func csvQuote(s string) string {
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// Matrix is a reusable evaluation-matrix engine: it owns one Machine
// per topology it has seen, and every cell evaluates its policies
// through that Machine's outcome store — so re-evaluating an
// overlapping spec (a service answering repeated matrix requests, a
// matrix extended by one more policy) replays the finished runs from
// memory, and identical concurrent cells share one simulation per run.
// A Matrix is safe for concurrent use.
//
// The machine set is bounded with FIFO eviction, like each Machine's
// result cache: a long-lived server answering matrix requests for ever
// new topologies must plateau, not grow without bound.  Eviction only
// costs a re-evaluation, never correctness.
type Matrix struct {
	mu       sync.Mutex
	machines fifoMap[Topology, *Machine] //mtlint:guardedby mu
}

// matrixMachineCap bounds the engine's machine set: a machine holds a
// full result cache (potentially tens of MB of traces).
const matrixMachineCap = 16

// NewMatrix returns an empty engine.
func NewMatrix() *Matrix {
	return &Matrix{machines: fifoMap[Topology, *Machine]{cap: matrixMachineCap}}
}

// machine returns (building if needed) the engine's Machine for a
// topology.
func (mx *Matrix) machine(topo Topology) (*Machine, error) {
	mx.mu.Lock()
	defer mx.mu.Unlock()
	if m, ok := mx.machines.get(topo); ok {
		return m, nil
	}
	m, err := NewMachine(&Options{Topology: topo})
	if err != nil {
		return nil, err
	}
	mx.machines.put(topo, m)
	return m, nil
}

// resolveSpec validates the spec and returns the effective policy list
// (static control first when it had to be added) and topology list.
func resolveSpec(spec MatrixSpec) ([]Policy, []Topology, error) {
	if len(spec.Scenarios) == 0 {
		return nil, nil, fmt.Errorf("smtbalance: MatrixSpec.Scenarios is empty; ParseScenario(\"uniform\") is the minimal axis")
	}
	for i, sc := range spec.Scenarios {
		if sc == nil {
			return nil, nil, fmt.Errorf("smtbalance: MatrixSpec.Scenarios[%d] is nil", i)
		}
	}
	if len(spec.Policies) == 0 {
		return nil, nil, fmt.Errorf("smtbalance: MatrixSpec.Policies is empty; StaticPolicy{} is the minimal axis")
	}
	pols := make([]Policy, 0, len(spec.Policies)+1)
	seen := make(map[string]bool)
	hasStatic := false
	for i, pol := range spec.Policies {
		if pol == nil {
			return nil, nil, fmt.Errorf("smtbalance: MatrixSpec.Policies[%d] is nil; use StaticPolicy{} for the no-balancing control", i)
		}
		id := PolicyID(pol)
		if seen[id] {
			return nil, nil, fmt.Errorf("smtbalance: duplicate policy %q in MatrixSpec.Policies", id)
		}
		seen[id] = true
		if id == PolicyID(StaticPolicy{}) {
			hasStatic = true
		}
		pols = append(pols, pol)
	}
	if !hasStatic {
		pols = append([]Policy{StaticPolicy{}}, pols...)
	}
	topos := spec.Topologies
	if len(topos) == 0 {
		topos = []Topology{DefaultTopology()}
	}
	norm := make([]Topology, len(topos))
	for i, t := range topos {
		norm[i] = t.normalized()
		if err := norm[i].Validate(); err != nil {
			return nil, nil, fmt.Errorf("smtbalance: MatrixSpec.Topologies[%d]: %w", i, err)
		}
	}
	return pols, norm, nil
}

// evalCell evaluates one (topology, scenario) cell: every policy over
// the scenario's job, pinned in order at medium priority, fanned
// through the sweep worker pool, scored against the static control.
func (mx *Matrix) evalCell(ctx context.Context, topo Topology, sc Scenario, pols []Policy, workers int) ([]MatrixEntry, error) {
	m, err := mx.machine(topo)
	if err != nil {
		return nil, err
	}
	job, err := sc.Job(topo)
	if err != nil {
		return nil, err
	}
	sw, err := m.SweepAll(ctx, job, Space{
		FixPairing: true,
		Priorities: []Priority{PriorityMedium},
		Policies:   pols,
	}, &SweepOptions{Workers: workers})
	if err != nil {
		return nil, fmt.Errorf("smtbalance: matrix cell (%s, %s): %w", topo, ScenarioID(sc), err)
	}
	byPolicy := make(map[string]SweepEntry, len(sw.Entries))
	for _, e := range sw.Entries {
		byPolicy[e.Policy] = e
	}
	static, ok := byPolicy[PolicyID(StaticPolicy{})]
	if !ok {
		return nil, fmt.Errorf("smtbalance: matrix cell (%s, %s): sweep returned no static control", topo, ScenarioID(sc))
	}
	entries := make([]MatrixEntry, 0, len(pols))
	for _, pol := range pols {
		e, ok := byPolicy[PolicyID(pol)]
		if !ok {
			return nil, fmt.Errorf("smtbalance: matrix cell (%s, %s): policy %q missing from sweep ranking", topo, ScenarioID(sc), PolicyID(pol))
		}
		entries = append(entries, MatrixEntry{
			Topology:     topo.String(),
			Scenario:     ScenarioID(sc),
			Policy:       e.Policy,
			Cycles:       e.Cycles,
			Seconds:      e.Seconds,
			ImbalancePct: e.ImbalancePct,
			Speedup:      float64(static.Cycles) / float64(e.Cycles),
		})
	}
	return entries, nil
}

// Eval evaluates the matrix and streams its entries as an iterator of
// (entry, error) pairs, in spec order (topology-major, then scenario,
// then policy — the static control first when it was added implicitly).
// Entries stream cell by cell as each (topology, scenario) cell
// finishes; cells whose runs are all cached stream immediately.
// On error the iterator yields exactly one (MatrixEntry{}, err) pair;
// cancelling ctx aborts the evaluation promptly.
func (mx *Matrix) Eval(ctx context.Context, spec MatrixSpec, opts *MatrixOptions) iter.Seq2[MatrixEntry, error] {
	return func(yield func(MatrixEntry, error) bool) {
		if ctx == nil {
			ctx = context.Background()
		}
		if opts == nil {
			opts = &MatrixOptions{}
		}
		pols, topos, err := resolveSpec(spec)
		if err != nil {
			yield(MatrixEntry{}, err)
			return
		}
		total := len(topos) * len(spec.Scenarios)
		done := 0
		for _, topo := range topos {
			for _, sc := range spec.Scenarios {
				entries, err := mx.evalCell(ctx, topo, sc, pols, opts.Workers)
				if err != nil {
					yield(MatrixEntry{}, err)
					return
				}
				done++
				if opts.Progress != nil {
					opts.Progress(done, total)
				}
				for _, e := range entries {
					if !yield(e, nil) {
						return
					}
				}
			}
		}
	}
}

// EvalAll is Eval collected into a MatrixResult.
func (mx *Matrix) EvalAll(ctx context.Context, spec MatrixSpec, opts *MatrixOptions) (*MatrixResult, error) {
	out := &MatrixResult{}
	for e, err := range mx.Eval(ctx, spec, opts) {
		if err != nil {
			return nil, err
		}
		out.Entries = append(out.Entries, e)
	}
	topos := len(spec.Topologies)
	if topos == 0 {
		topos = 1
	}
	out.Cells = topos * len(spec.Scenarios)
	return out, nil
}

// defaultMatrix backs the package-level EvalMatrix wrappers so repeated
// evaluations share one engine (and its caches) process-wide.
var defaultMatrix = sync.OnceValue(NewMatrix)

// EvalMatrix evaluates the matrix on a shared package-level engine and
// streams its entries; see Matrix.Eval.  Callers wanting isolated
// caches (or control over their lifetime) should hold their own engine
// via NewMatrix.
func EvalMatrix(ctx context.Context, spec MatrixSpec, opts *MatrixOptions) iter.Seq2[MatrixEntry, error] {
	return defaultMatrix().Eval(ctx, spec, opts)
}

// EvalMatrixAll is EvalMatrix collected into a MatrixResult.
func EvalMatrixAll(ctx context.Context, spec MatrixSpec, opts *MatrixOptions) (*MatrixResult, error) {
	return defaultMatrix().EvalAll(ctx, spec, opts)
}
