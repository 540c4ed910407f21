package smtbalance

import "sync"

// flight is one in-progress computation of a cache-keyed value.  The
// leader publishes exactly once; followers block on done and then read
// val/err, which are immutable afterwards.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// publish records the computation's outcome and wakes every follower.
func (f *flight[V]) publish(val V, err error) {
	f.val, f.err = val, err
	close(f.done)
}

// flightGroup coalesces concurrent computations of the same cache key
// into one (singleflight): the first goroutine to join a key becomes the
// leader and computes; the rest wait for its published result.  Keys are
// slots over the package's canonical SHA-256 cache keys, so two joined
// requests are guaranteed to describe byte-identical simulations.
//
// Unlike the classic singleflight, failure handling is the caller's: a
// leader whose context was cancelled publishes its error, and a follower
// with a live context re-joins (becoming the new leader) instead of
// inheriting a cancellation that was never its own.
type flightGroup[V any] struct {
	mu      sync.Mutex
	flights map[slot]*flight[V] //mtlint:guardedby mu
}

// join returns the key's in-progress flight and whether the caller is
// its leader.  A leader must eventually publish and forget the key; a
// follower must wait on the flight's done channel.
func (g *flightGroup[V]) join(k slot) (f *flight[V], leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.flights[k]; ok {
		return f, false
	}
	if g.flights == nil {
		g.flights = make(map[slot]*flight[V])
	}
	f = &flight[V]{done: make(chan struct{})}
	g.flights[k] = f
	return f, true
}

// forget detaches the key so later joiners start a fresh computation.
// The leader calls it after storing its result in the cache (and before
// publishing), so a goroutine arriving in between finds the cache entry
// rather than a spent flight.
func (g *flightGroup[V]) forget(k slot) {
	g.mu.Lock()
	delete(g.flights, k)
	g.mu.Unlock()
}
