package sweep

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/mpisim"
)

// Options tunes a sweep.
type Options struct {
	// Workers caps concurrent simulator runs; 0 means GOMAXPROCS, 1
	// forces a serial sweep.  The ranking is identical for every value.
	Workers int
	// Top truncates the ranking to the best K configurations after
	// aggregation; 0 keeps everything.
	Top int
	// Objective scores each run; the zero value minimizes cycles.
	Objective Objective
	// RunFn evaluates one point and is required: the caller owns the
	// job, the simulation environment and any caching (idx is the
	// point's position in the input slice, so a caller fanning a cross
	// product through one pool can recover its extra axes from it).  It
	// must be safe for concurrent use and deterministic in its inputs,
	// or the ranking loses its worker-count independence.
	RunFn func(ctx context.Context, idx int, pl mpisim.Placement) (Metrics, error)
	// OnProgress, if set, is called after each completed evaluation
	// with the number of points finished so far and the total.  Calls
	// are serialized (one at a time), but their order follows run
	// completion, not point order.
	OnProgress func(done, total int)
}

// RunResult is one evaluated configuration.
type RunResult struct {
	// Index is the configuration's position in the input point slice —
	// the sweep-order identity used to make rankings total.
	Index int
	// Point is the configuration.
	Point Point
	// Metrics holds the run's measured quantities (zero if Err != nil).
	Metrics Metrics
	// Score is the objective value; lower is better.  Failed runs score
	// +Inf and sort last.
	Score float64
	// Err is the simulator error, if the run failed.
	Err error
}

// Result is a finished sweep.
type Result struct {
	// Ranked holds the evaluated configurations sorted by (Score,
	// Cycles, Index) ascending — a total order, so the ranking is
	// byte-identical for every worker count — truncated to Options.Top.
	Ranked []RunResult
	// Evaluated is the number of configurations run (before truncation).
	Evaluated int
	// Failed counts runs that returned an error; FirstErr is the error
	// of the lowest-index failed configuration.  Both are recorded
	// before Top truncation, which may drop the +Inf-scored failed
	// entries from Ranked.
	Failed   int
	FirstErr error
	// MinCycles is the fastest successful run's cycle count, the
	// normalization reference for weighted objectives.
	MinCycles int64
}

// Best returns the top-ranked successful configuration.
func (r *Result) Best() (RunResult, error) {
	if len(r.Ranked) == 0 || r.Ranked[0].Err != nil {
		return RunResult{}, fmt.Errorf("sweep: no configuration ran successfully")
	}
	return r.Ranked[0], nil
}

// SweepCtx evaluates every point through Options.RunFn and returns the
// objective's ranking.  Points are independent, so they fan out across
// the worker pool and land in a pre-allocated slot; aggregation then
// scores and sorts with a total order, so the result is deterministic
// and independent of Options.Workers.  Once ctx is done, no new point
// is claimed, in-flight evaluations see the cancelled ctx, and
// ctx.Err() is returned instead of a partial ranking.
func SweepCtx(ctx context.Context, points []Point, opt Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("sweep: empty configuration space")
	}
	if opt.RunFn == nil {
		return nil, fmt.Errorf("sweep: Options.RunFn is required")
	}
	obj := opt.Objective.normalize()
	var (
		progressMu sync.Mutex
		done       int
	)

	results := make([]RunResult, len(points))
	err := ForEachCtx(ctx, len(points), opt.Workers, func(i int) {
		rr := RunResult{Index: i, Point: points[i]}
		met, err := opt.RunFn(ctx, i, points[i].Placement())
		if err != nil {
			rr.Err = err
		} else {
			rr.Metrics = met
		}
		results[i] = rr
		if opt.OnProgress != nil {
			progressMu.Lock()
			done++
			opt.OnProgress(done, len(points))
			progressMu.Unlock()
		}
	})
	if err != nil {
		return nil, err
	}

	out := &Result{Evaluated: len(results)}
	for _, rr := range results { // still in index order here
		if rr.Err != nil {
			out.Failed++
			if out.FirstErr == nil {
				out.FirstErr = rr.Err
			}
			continue
		}
		if out.MinCycles == 0 || rr.Metrics.Cycles < out.MinCycles {
			out.MinCycles = rr.Metrics.Cycles
		}
	}
	for i := range results {
		if results[i].Err != nil {
			results[i].Score = math.Inf(1)
			continue
		}
		results[i].Score = obj.Score(results[i].Metrics, out.MinCycles)
	}
	sort.Slice(results, func(a, b int) bool {
		ra, rb := results[a], results[b]
		if ra.Score != rb.Score {
			return ra.Score < rb.Score
		}
		if ra.Metrics.Cycles != rb.Metrics.Cycles {
			return ra.Metrics.Cycles < rb.Metrics.Cycles
		}
		return ra.Index < rb.Index
	})
	if opt.Top > 0 && opt.Top < len(results) {
		results = results[:opt.Top]
	}
	out.Ranked = results
	return out, nil
}
