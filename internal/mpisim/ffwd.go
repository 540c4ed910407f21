package mpisim

import (
	"bytes"
	"encoding/binary"
	"math/bits"

	"repro/internal/workload"
)

// Phase-skip execution.
//
// The simulated applications are iterative: after a warm-up transient,
// the whole machine falls into a limit cycle — every iteration executes
// the same instructions against the same caches, predictors and queues,
// cycle for cycle.  The engine detects that limit cycle and advances
// across its repetitions analytically instead of ticking through them.
//
// Mechanism.  Every time rank 0 starts a compute phase (the anchor —
// once per iteration in practice) the engine snapshots the *normalized*
// state of the whole system: machine state via power5.Machine.FFNorm
// (absolute cycle numbers expressed relative to now, monotonic counters
// reduced to their behavioral residue) plus the runtime's own scheduler
// state below.  If the snapshot matches an earlier one taken Q cycles
// ago, the window just executed will repeat exactly: the state at both
// ends is behaviorally identical and everything in between is
// deterministic.  The engine then computes how many repetitions k are
// provably safe and applies them in O(state) time: extensive counters
// advance by k times their per-window delta (Machine.FFAdvance), cycle-
// anchored fields shift by k·Q, per-rank program counters advance by k
// windows, and the trace receives k replicas of the window's intervals
// (trace.FFReplicate).
//
// Exactness.  A skip is performed only when every ingredient of future
// behavior is provably periodic:
//
//   - the machine norm matches byte for byte (streams, pipeline rings,
//     predictor, kernel preemption state);
//   - every cache set is in the same recency order: the caches log which
//     sets changed between anchors, and Machine.FFCachesSame checks
//     that each set changed since the matched anchor is back to its
//     order there (see internal/mem/ffwd.go) — the same answer a byte
//     compare of whole-cache encodings would give, at the cost of the
//     sets an iteration touches;
//   - the runtime norm matches (finished/in-compute flags, pending
//     exchanges and their readable arrival suffix relative to now,
//     barrier membership, per-rank trace states);
//   - each rank's upcoming program phases repeat with its per-window
//     phase stride for the full k windows (phases are compared by
//     value, including loads and peers);
//   - no phase in the window is a seed-derived pseudo-random kernel
//     (workload.UsesLCG with Load.Seed == 0): the runtime derives such
//     seeds from the program counter, so successive iterations would
//     start from different random states;
//   - k is capped so the run stays below MaxCycles, keeping the
//     deadlock-abort path byte-identical with exact execution.
//
// Because a matched window is replayed rather than approximated, runs
// with and without phase-skip produce byte-identical results; the
// differential tests in ff_test.go and the root package enforce this
// over every registered policy and scenario.
//
// Gating.  The engine arms only when Config.Exact is false and no
// OnIteration or LoadDrift hook is installed: hooks observe or perturb
// per-iteration state, so skipping iterations would change what they
// see.  If any instruction stream does not support state capture the
// engine disarms permanently for the run.

// ffHistCap bounds the anchor-snapshot history; matches are searched
// newest-first, so the cap only limits how stale a recurrence can be.
// A chip whose behavior is periodic mod M (≤ 64) and whose iteration
// length is odd visits M distinct cycle residues before anchors become
// congruent again, so the cap leaves room for a full residue orbit plus
// warm-up drift.  Mismatches are rejected by an 8-byte hash compare, so
// a deep history costs memory (≤ cap · norm size, plus the caches'
// change log over the same anchors), not scan time.
const ffHistCap = 80

// ffSnap is one anchor snapshot.  The caches are not in norm: they
// record their own state as snapshot anchor (Machine.FFCacheSnapshot).
type ffSnap struct {
	anchor    int64
	cycle     int64
	hash      uint64
	norm      []byte
	ctrs      []int64
	pc        []int
	exLen     []int
	trCnt     []int
	iteration int
}

// ffEngine holds the phase-skip state of one run.
type ffEngine struct {
	hist    []ffSnap
	scratch []byte
	// anchors numbers the anchors seen, naming the cache snapshots.
	anchors int64
	// skips counts applied skips; windows and cycles total what they
	// covered (exposed as Result.SkippedCycles).
	skips   int
	windows int64
	cycles  int64
}

// ffHash pre-filters history matches before the byte compare, so any
// decent mix will do; it reads the norm 8 bytes at a time.
func ffHash(b []byte) uint64 {
	const k1, k2 = 0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9
	h := uint64(len(b)) * k1
	for ; len(b) >= 8; b = b[8:] {
		h = bits.RotateLeft64(h^binary.LittleEndian.Uint64(b)*k2, 31) * k1
	}
	var tail [8]byte
	copy(tail[:], b)
	h ^= binary.LittleEndian.Uint64(tail[:]) * k2
	h ^= h >> 32
	h *= k1
	return h ^ h>>29
}

// ffNorm appends the full normalized system state: machine first, then
// the runtime scheduler state.  ok is false when some stream does not
// support capture.
func (rt *runtime) ffNorm(b []byte) ([]byte, bool) {
	b, ok := rt.mach.FFNorm(b)
	if !ok {
		return b, false
	}
	now := rt.mach.Cycle()
	b = binary.LittleEndian.AppendUint64(b, uint64(rt.remaining))
	// Arrival entries below the lowest exchange index any unfinished
	// rank can still wait on are dead: exchanges match by index and
	// indices only grow.  Capturing the live suffix (relative to now,
	// clamped at zero — a past arrival only ever acts through
	// max(arrival, now)) keeps the norm recurrence-friendly.
	floor := -1
	for _, rs := range rt.ranks {
		if rs.finished {
			continue
		}
		v := len(rs.exchangeArrivals)
		if rs.pendingExchange >= 0 {
			v = rs.pendingExchange
		}
		if floor < 0 || v < floor {
			floor = v
		}
	}
	if floor < 0 {
		floor = 0
	}
	for _, rs := range rt.ranks {
		flags := byte(0)
		if rs.finished {
			flags |= 1
		}
		if rs.inCompute {
			flags |= 2
		}
		if rs.pendingExchange >= 0 {
			flags |= 4
		}
		b = append(b, flags)
		if rs.wakeAt >= 0 {
			b = binary.LittleEndian.AppendUint64(b, uint64(rs.wakeAt-now))
		} else {
			b = binary.LittleEndian.AppendUint64(b, ^uint64(0))
		}
		start := floor
		if start > len(rs.exchangeArrivals) {
			start = len(rs.exchangeArrivals)
		}
		suffix := rs.exchangeArrivals[start:]
		b = binary.LittleEndian.AppendUint64(b, uint64(len(suffix)))
		for _, a := range suffix {
			rel := int64(0)
			if a > now {
				rel = a - now
			}
			b = binary.LittleEndian.AppendUint64(b, uint64(rel))
		}
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(rt.barrierWaiting)))
	for _, id := range rt.barrierWaiting {
		b = append(b, byte(id))
	}
	return rt.tr.FFNorm(b), true
}

// ffSnapshot captures the current state as a history entry.  norm must
// be the current ffNorm output.
func (rt *runtime) ffSnapshot(norm []byte, hash uint64) ffSnap {
	s := ffSnap{
		anchor:    rt.ff.anchors,
		cycle:     rt.mach.Cycle(),
		hash:      hash,
		norm:      append([]byte(nil), norm...),
		ctrs:      rt.mach.FFCtrs(nil),
		pc:        make([]int, len(rt.ranks)),
		exLen:     make([]int, len(rt.ranks)),
		trCnt:     rt.tr.FFCounts(),
		iteration: rt.iteration,
	}
	for i, rs := range rt.ranks {
		s.pc[i] = rs.pc
		s.exLen[i] = len(rs.exchangeArrivals)
	}
	return s
}

// ffOnAnchor runs at the main-loop boundary following an anchor event:
// it looks for a recurrence, applies the largest provably-safe skip,
// and records the (post-skip) state in the history.
func (rt *runtime) ffOnAnchor() {
	e := rt.ff
	norm, ok := rt.ffNorm(e.scratch[:0])
	e.scratch = norm[:0]
	if !ok {
		rt.ff = nil
		return
	}
	e.anchors++
	h := ffHash(norm) ^ rt.mach.FFCacheSnapshot(e.anchors)
	for i := len(e.hist) - 1; i >= 0; i-- {
		hs := &e.hist[i]
		if hs.hash == h && bytes.Equal(hs.norm, norm) && rt.mach.FFCachesSame(hs.anchor, e.anchors) {
			rt.ffApply(hs)
			break
		}
	}
	snap := rt.ffSnapshot(norm, h)
	if len(e.hist) == ffHistCap {
		copy(e.hist, e.hist[1:])
		e.hist[ffHistCap-1] = snap
	} else {
		e.hist = append(e.hist, snap)
	}
	rt.mach.FFCacheTrim(e.hist[0].anchor)
}

// ffWindows returns how many extra repetitions of the window ending now
// are provably safe for rank rs given its per-window phase stride, or 0.
// kMax is the global cap already derived from MaxCycles.
func (rt *runtime) ffWindows(rs *rankState, pc0 int, kMax int64) int64 {
	dp := rs.pc - pc0
	if dp == 0 {
		return kMax // rank did not advance; nothing program-side to check
	}
	if dp < 0 {
		return 0
	}
	// Seed-derived pseudo-random kernels make iterations non-periodic
	// (the runtime derives the seed from the program counter).
	for p := pc0; p < rs.pc && p < len(rs.program); p++ {
		ph := rs.program[p]
		if ph.Kind == PhaseCompute && ph.Load.Seed == 0 && workload.UsesLCG(ph.Load.Kind) {
			return 0
		}
	}
	// Count how far the program repeats with stride dp from the current
	// position.  The k-th replica must not only re-execute k·dp phases, it
	// ends in the anchor state — which embeds the *start* of the phase at
	// the advanced pc (the anchor is "a phase just began").  So the phase
	// at pc+k·dp must exist and match too: the scan covers t ≤ k·dp.
	limit := int64(len(rs.program) - rs.pc)
	if m := kMax*int64(dp) + 1; m < limit {
		limit = m
	}
	var t int64
	for t = 0; t < limit; t++ {
		if !phaseEq(rs.program[rs.pc+int(t)], rs.program[rs.pc+int(t)-dp]) {
			break
		}
	}
	if t == 0 {
		return 0
	}
	return (t - 1) / int64(dp)
}

func phaseEq(a, b Phase) bool {
	if a.Kind != b.Kind || a.Load != b.Load || a.Bytes != b.Bytes || len(a.Peers) != len(b.Peers) {
		return false
	}
	for i := range a.Peers {
		if a.Peers[i] != b.Peers[i] {
			return false
		}
	}
	return true
}

// ffApply advances the run k whole windows past the recurrence of h,
// where k is the largest provably-safe repetition count (possibly 0).
func (rt *runtime) ffApply(h *ffSnap) {
	now := rt.mach.Cycle()
	q := now - h.cycle
	if q <= 0 {
		return
	}
	// Stay strictly below MaxCycles so an eventual deadlock abort
	// happens exactly as it would under per-cycle execution.
	k := (rt.cfg.MaxCycles - 1 - now) / q
	for _, rs := range rt.ranks {
		if k <= 0 {
			return
		}
		if kr := rt.ffWindows(rs, h.pc[rs.id], k); kr < k {
			k = kr
		}
	}
	if k <= 0 {
		return
	}
	dt := k * q

	// Machine: counters advance by k deltas, clocks shift by dt.
	cur := rt.mach.FFCtrs(nil)
	if len(cur) != len(h.ctrs) {
		panic("mpisim: phase-skip counter shape mismatch")
	}
	delta := cur // reuse: overwrite in place
	for i := range delta {
		delta[i] = cur[i] - h.ctrs[i]
	}
	if rest := rt.mach.FFAdvance(k, dt, delta); len(rest) != 0 {
		panic("mpisim: phase-skip advance consumed wrong counter count")
	}

	// Runtime scheduler state.
	for _, rs := range rt.ranks {
		dp := rs.pc - h.pc[rs.id]
		rs.pc += int(k) * dp
		if dp > 0 {
			// Keep the LoadDrift compute-phase index consistent even
			// though drift hooks disarm the engine: the count is part of
			// the rank's logical position.
			nc := 0
			for p := h.pc[rs.id]; p < h.pc[rs.id]+dp && p < len(rs.program); p++ {
				if rs.program[p].Kind == PhaseCompute {
					nc++
				}
			}
			rs.computeIdx += int(k) * nc
		}
		if rs.inCompute {
			rs.computeStart += dt
		}
		if rs.wakeAt >= 0 {
			rs.wakeAt += dt
		}
		win := rs.exchangeArrivals[h.exLen[rs.id]:]
		if len(win) > 0 {
			w := append([]int64(nil), win...)
			for j := int64(1); j <= k; j++ {
				for _, a := range w {
					rs.exchangeArrivals = append(rs.exchangeArrivals, a+j*q)
				}
			}
			if rs.pendingExchange >= 0 {
				rs.pendingExchange += int(k) * len(w)
			}
		}
	}
	rt.iteration += int(k) * (rt.iteration - h.iteration)
	rt.tr.FFReplicate(h.trCnt, k, q, h.cycle)

	e := rt.ff
	e.skips++
	e.windows += k
	e.cycles += dt
}
