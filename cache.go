package smtbalance

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"sync"

	"repro/internal/diskcache"
	"repro/internal/mpisim"
)

// cacheKeyVersion names the canonical cache-key format.  It is hashed
// into every key (envJobKey's leading tag) and names the disk store's
// directory, so bumping it on a format change invalidates both tiers
// together.
const cacheKeyVersion = "v2"

// cacheKey identifies one deterministic simulator configuration: a
// canonical SHA-256 over (topology, simulation options, job, placement).
// The simulator is pure, so equal keys mean byte-identical outcomes.
type cacheKey [sha256.Size]byte

// hasher accumulates the canonical encoding.  Every field is written
// with an explicit tag and fixed-width integers so that distinct
// configurations can never collide by concatenation ambiguity.
type hasher struct {
	buf []byte
}

func (h *hasher) u64(v uint64) {
	h.buf = binary.BigEndian.AppendUint64(h.buf, v)
}

func (h *hasher) i64(v int64) { h.u64(uint64(v)) }

func (h *hasher) tag(b byte) { h.buf = append(h.buf, b) }

func (h *hasher) bool(v bool) {
	if v {
		h.tag(1)
	} else {
		h.tag(0)
	}
}

// str hashes a length-prefixed string, so concatenated fields can never
// collide by reassociation.
func (h *hasher) str(s string) {
	h.i64(int64(len(s)))
	h.buf = append(h.buf, s...)
}

// envJobKey hashes the run environment and the job — everything but the
// placement, which sweeps vary point by point.
//
// Audit: every behavior-affecting Options field must appear here —
// mechanically enforced by mtlint's cachekey pass (the //mtlint:cachekey
// directives on Options and the hashers; see docs/lint.md).
//   - Topology: hashed (three dimensions, normalized).
//   - VanillaKernel, NoOSNoise, ColdCaches: hashed.
//   - Policy: hashed structurally — the name and every parameter
//     key/value length-prefixed, keys sorted — so distinct policies or
//     parameters can never collide, even for custom policies whose
//     Name/Params contain the rendered PolicyID grammar's delimiters.
//     Machine.RunPolicy and policy-axis sweeps hash the policy they run
//     by setting it on a copy of the machine's options.
//   - MaxCycles: hashed.
//   - OnIteration: not hashed — its presence disables caching entirely
//     (Machine.RunPolicy), as does a policy that cannot be re-bound per
//     run (policyCacheable).
//   - LoadDrift: not hashed — like OnIteration its presence disables
//     caching entirely (an arbitrary function cannot be hashed, and the
//     loads it produces are not in the job).
//   - Exact: deliberately not hashed — it selects between two execution
//     strategies with byte-identical results (the phase-skip engine only
//     applies provably exact repetitions; ff_test.go and the root
//     differential tests enforce the identity), so both spellings must
//     share cache entries.
//
// Job.Name is deliberately excluded: it labels diagnostics and never
// reaches the simulated machine, so two jobs differing only in name
// share cache entries.
//
// SweepOptions (Workers, Top, Objective, Screen, Progress) is likewise
// outside the key on purpose: none of its fields change what any single
// run computes.  Screen in particular only *selects* which placement
// points are simulated — every run a screened sweep does execute goes
// through this same key, so screened and exhaustive sweeps share cache
// entries point for point (the screened-vs-exhaustive differential
// tests depend on exactly that).
//
//mtlint:cachekey-hasher run
func envJobKey(opts Options, job Job) [sha256.Size]byte {
	var h hasher
	h.str(cacheKeyVersion)
	topo := opts.Topology.normalized()
	h.i64(int64(topo.Chips))
	h.i64(int64(topo.CoresPerChip))
	h.i64(int64(topo.SMTWays))
	h.bool(opts.VanillaKernel)
	h.bool(opts.NoOSNoise)
	h.bool(opts.ColdCaches)
	if pol := opts.Policy; pol == nil {
		h.tag(0)
	} else {
		h.tag(1)
		h.str(pol.Name())
		params := pol.Params()
		keys := make([]string, 0, len(params))
		for k := range params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		h.i64(int64(len(keys)))
		for _, k := range keys {
			h.str(k)
			h.str(params[k])
		}
	}
	h.i64(opts.MaxCycles)
	h.i64(int64(len(job.Ranks)))
	for _, prog := range job.Ranks {
		h.tag('R')
		h.i64(int64(len(prog)))
		for _, ph := range prog {
			switch ph.inner.Kind {
			case mpisim.PhaseCompute:
				h.tag('C')
				h.u64(uint64(ph.inner.Load.Kind))
				h.i64(ph.inner.Load.N)
				h.i64(ph.inner.Load.Footprint)
				h.u64(ph.inner.Load.Base)
				h.u64(ph.inner.Load.Seed)
			case mpisim.PhaseBarrier:
				h.tag('B')
			case mpisim.PhaseExchange:
				h.tag('E')
				h.i64(ph.inner.Bytes)
				h.i64(int64(len(ph.inner.Peers)))
				for _, p := range ph.inner.Peers {
					h.i64(int64(p))
				}
			}
		}
	}
	return sha256.Sum256(h.buf)
}

// placementKey extends an environment+job hash with a concrete placement,
// yielding the full cache key of one run.
func placementKey(base [sha256.Size]byte, pl Placement) cacheKey {
	var h hasher
	h.buf = append(h.buf, base[:]...)
	h.tag('P')
	h.i64(int64(len(pl.CPU)))
	for _, c := range pl.CPU {
		h.i64(int64(c))
	}
	for _, p := range pl.Priority {
		h.i64(int64(p))
	}
	return sha256.Sum256(h.buf)
}

// CacheStats reports a Machine's result-cache effectiveness.  The
// number of simulations actually executed is Misses − Coalesced −
// DiskHits: every lookup that neither hit memory, joined an identical
// in-flight computation, nor was revived from disk ran the simulator.
type CacheStats struct {
	// Hits counts lookups served from memory.
	Hits int64 `json:"hits"`
	// Misses counts lookups the in-memory tier could not answer.
	Misses int64 `json:"misses"`
	// Coalesced counts missed lookups that joined an identical
	// in-flight computation (singleflight) instead of simulating a
	// duplicate.
	Coalesced int64 `json:"coalesced"`
	// DiskHits counts missed lookups answered by the persistent disk
	// tier (zero without Machine.UseDiskCache).
	DiskHits int64 `json:"disk_hits"`
	// DiskWrites counts records persisted to the disk tier.
	DiskWrites int64 `json:"disk_writes"`
	// Results is the entry count of the full-result cache layer
	// (complete runs, traces included).
	Results int `json:"results"`
	// Metrics is the entry count of the sweep-point metrics layer.
	Metrics int `json:"metrics"`
}

// keyRing is a bounded FIFO of keys backed by a circular buffer.
// Eviction pops the head in place; an `order = order[1:]` re-slice
// would keep every evicted key's slot reachable from the backing array,
// so a long-running server's eviction order would grow without bound
// even though its map stayed capped.
type keyRing[K comparable] struct {
	buf  []K
	head int // index of the oldest element
	n    int // live element count
}

// push appends k, growing the buffer geometrically; an owner that only
// pushes after evicting at its cap keeps the buffer at most one
// doubling past that cap forever.
func (r *keyRing[K]) push(k K) {
	if r.n == len(r.buf) {
		grown := make([]K, max(16, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = k
	r.n++
}

// pop removes and returns the oldest key, zeroing its slot for reuse.
func (r *keyRing[K]) pop() K {
	if r.n == 0 {
		panic("smtbalance: pop from empty key ring")
	}
	var zero K
	k := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return k
}

// fifoMap is a map bounded to cap entries with first-in, first-out
// eviction — the one container behind both result-cache layers and the
// Matrix engine's machine set.  Everything it holds is recomputable, so
// eviction only ever costs a re-run.  It is not synchronized: its owner
// locks.  The zero value with cap set is ready to use.
type fifoMap[K comparable, V any] struct {
	m     map[K]V
	order keyRing[K]
	cap   int
}

func (f *fifoMap[K, V]) get(k K) (V, bool) {
	v, ok := f.m[k]
	return v, ok
}

// put stores v under k, evicting the oldest entry at the cap; a key
// already present keeps its first value.
func (f *fifoMap[K, V]) put(k K, v V) {
	if _, ok := f.m[k]; ok {
		return
	}
	if f.m == nil {
		f.m = make(map[K]V)
	}
	if len(f.m) >= f.cap {
		delete(f.m, f.order.pop())
	}
	f.m[k] = v
	f.order.push(k)
}

func (f *fifoMap[K, V]) len() int { return len(f.m) }

// clear drops every entry.
func (f *fifoMap[K, V]) clear() { f.m, f.order = nil, keyRing[K]{} }

// slot names one stored outcome: a configuration's cache key and
// whether the outcome is a full Result (trace included, what Run
// returns) or only the metrics a sweep point keeps.  The two kinds of
// the same configuration are stored, coalesced and persisted apart, so
// a Run is never answered by a metrics-only outcome.
type slot struct {
	key  cacheKey
	full bool
}

// diskKey renders the slot as the disk store's content address, the
// record kind ("run" or "met") suffixed to the hex key.
func (s slot) diskKey() string {
	kind := "met"
	if s.full {
		kind = "run"
	}
	return hex.EncodeToString(s.key[:]) + "-" + kind
}

// resultCache is the Machine's deterministic outcome store, keyed by
// slot: full Results for Run and metrics-only Results for the many
// points a sweep evaluates, each in its own bounded FIFO layer.  A
// flightGroup coalesces identical in-flight evaluations, and an
// optional content-addressed disk store (Machine.UseDiskCache) persists
// records across restarts and shares them between replicas pointed at
// one directory.  Machine.evaluate is the one place that walks the
// tiers.
type resultCache struct {
	mu           sync.Mutex
	hits, misses int64 //mtlint:guardedby mu
	coalesced    int64 //mtlint:guardedby mu
	diskHits     int64 //mtlint:guardedby mu
	diskWrites   int64 //mtlint:guardedby mu

	runs fifoMap[cacheKey, *Result] //mtlint:guardedby mu
	mets fifoMap[cacheKey, *Result] //mtlint:guardedby mu

	// disk is nil without a disk tier.
	disk *diskcache.Store //mtlint:guardedby mu

	//mtlint:unguarded flightGroup synchronizes itself; leaders publish outside c.mu
	flights flightGroup[*Result]
}

// Default cache bounds: full results carry traces (tens of KB each),
// metrics are three numbers, so the metrics layer affords far more
// entries — enough to hold the paper's whole OS-settable 4-rank space.
const (
	defaultRunCacheCap    = 512
	defaultMetricCacheCap = 1 << 16
)

func newResultCache() *resultCache {
	return &resultCache{
		runs: fifoMap[cacheKey, *Result]{cap: defaultRunCacheCap},
		mets: fifoMap[cacheKey, *Result]{cap: defaultMetricCacheCap},
	}
}

// get looks the slot up in memory, counting the hit or miss, and
// returns a private copy.
func (c *resultCache) get(s slot) (*Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	layer := &c.mets
	if s.full {
		layer = &c.runs
	}
	res, ok := layer.get(s.key)
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	return res.clone(), true
}

// put stores a private copy of the slot's outcome.
func (c *resultCache) put(s slot, res *Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	layer := &c.mets
	if s.full {
		layer = &c.runs
	}
	layer.put(s.key, res.clone())
}

func (c *resultCache) clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.runs.clear()
	c.mets.clear()
}

func (c *resultCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses,
		Coalesced: c.coalesced, DiskHits: c.diskHits, DiskWrites: c.diskWrites,
		Results: c.runs.len(), Metrics: c.mets.len(),
	}
}

// noteCoalesced counts a lookup that joined an in-flight computation.
func (c *resultCache) noteCoalesced() {
	c.mu.Lock()
	c.coalesced++
	c.mu.Unlock()
}

// setDisk attaches (or detaches, with nil) the persistent tier.
func (c *resultCache) setDisk(store *diskcache.Store) {
	c.mu.Lock()
	c.disk = store
	c.mu.Unlock()
}

// diskStore returns the attached persistent tier, or nil.
func (c *resultCache) diskStore() *diskcache.Store {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.disk
}

// getDisk revives the slot's outcome from the disk tier.  All failures —
// no tier, absent record, IO error, corrupt record — degrade to a miss;
// the disk can slow a cold start down, never break a request.
func (c *resultCache) getDisk(s slot) (*Result, bool) {
	store := c.diskStore()
	if store == nil {
		return nil, false
	}
	data, ok, err := store.Get(s.diskKey())
	if err != nil || !ok {
		return nil, false
	}
	res, err := decodeResult(data, s.full)
	if err != nil {
		return nil, false
	}
	c.mu.Lock()
	c.diskHits++
	c.mu.Unlock()
	return res, true
}

// putDisk persists the slot's outcome, best-effort.
func (c *resultCache) putDisk(s slot, res *Result) {
	store := c.diskStore()
	if store == nil {
		return
	}
	data, ok := encodeResult(res, s.full)
	if !ok {
		return
	}
	if store.Put(s.diskKey(), data) == nil {
		c.mu.Lock()
		c.diskWrites++
		c.mu.Unlock()
	}
}

// clone returns an independent copy of the result: the per-rank slice is
// fresh so callers may mutate theirs, while the immutable finished trace
// is shared (its writers only read once Finish has run).
func (r *Result) clone() *Result {
	out := *r
	out.Ranks = append([]RankSummary(nil), r.Ranks...)
	return &out
}
