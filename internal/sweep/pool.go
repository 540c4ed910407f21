// Package sweep is a deterministic, worker-pool-based engine for
// exploring the placement × priority configuration space of a job on the
// simulated machine — the search the paper's authors performed by hand,
// one run at a time, to produce Tables IV-VI.
//
// The engine has three parts:
//
//   - A generic index-parallel worker pool (ForEach, Map).  Each work item
//     writes only to its own slot of a pre-allocated result slice, so the
//     pool is race-free by construction and its output is independent of
//     the worker count and of scheduling order.
//
//   - Enumerators for the configuration space (Pairings, CoreAssignments,
//     Enumerate): every distinct way to co-schedule ranks in sibling
//     pairs on the machine's SMT cores — any power5.Topology, not just
//     the paper's single chip — crossed with a per-rank hardware-priority
//     alphabet, with the chip-relabeling, core-relabeling and
//     sibling-context symmetries pruned away.  On a 2×2×2 machine the
//     pruning collapses the 144 co-scheduled CPU maps of a 4-rank job to
//     6 representatives.  Placements that leave a rank alone on a core
//     are outside the space by design: the mechanism under study
//     arbitrates between siblings, and the paper expresses dedicated
//     cores as ST-mode rows (priority 7), not as sweep points.
//
//   - The sweep itself (SweepCtx): shard independent point evaluations
//     — the caller's RunFn, which simulates (or serves from its cache)
//     one configuration; the simulator is pure and shares nothing
//     between runs — across the pool, score each run with a pluggable
//     Objective, and aggregate into
//     a stable ranking that is byte-identical whether the sweep ran on
//     one worker or fifty.  Multi-chip spaces are larger even after
//     pruning, so the same index-sharded pool is what keeps 2-chip
//     sweeps tractable: points are claimed one index at a time and each
//     worker's results land in pre-allocated slots.
package sweep

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// PoolSize resolves a requested worker count for n items: <= 0 selects
// GOMAXPROCS, and the pool never runs more workers than items.  ForEach
// uses it, and callers reporting their pool size should too, so the
// report can never drift from the sizing actually used.
func PoolSize(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	return workers
}

// ForEach runs fn(i) for every i in [0, n) across at most workers
// goroutines.  workers <= 0 selects GOMAXPROCS; workers == 1 (or n == 1)
// degenerates to a plain serial loop with no goroutines at all.  Work is
// handed out through an atomic counter, so items are claimed in index
// order but may complete in any order: fn must confine its effects to
// per-index state (e.g. out[i]) for the result to be deterministic.
// A panic in any fn is re-raised on the caller's goroutine after all
// workers have drained.
//
//mtlint:ctx-root ctx-less convenience wrapper; ForEachCtx is the cancellable form
func ForEach(n, workers int, fn func(i int)) {
	ForEachCtx(context.Background(), n, workers, fn)
}

// ForEachCtx is ForEach with cancellation: once ctx is done, no new
// index is claimed (in-flight fn calls finish — pass ctx into fn's own
// work for prompt aborts) and ctx.Err() is returned.  Indices past the
// cancellation point are simply never run; callers must treat their
// slots as absent.  A nil ctx means context.Background().
func ForEachCtx(ctx context.Context, n, workers int, fn func(i int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if n <= 0 {
		return ctx.Err()
	}
	workers = PoolSize(n, workers)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return ctx.Err()
	}
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		panicMu sync.Mutex
		panicV  any
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicMu.Lock()
							if panicV == nil {
								panicV = r
							}
							panicMu.Unlock()
						}
					}()
					fn(i)
				}()
				panicMu.Lock()
				stop := panicV != nil
				panicMu.Unlock()
				if stop {
					return
				}
			}
		}()
	}
	wg.Wait()
	if panicV != nil {
		panic(panicV)
	}
	return ctx.Err()
}

// Map runs fn over [0, n) through ForEach and returns the results in
// index order.  The output is identical for every worker count as long
// as fn(i) depends only on i.
func Map[T any](n, workers int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(n, workers, func(i int) { out[i] = fn(i) })
	return out
}
