package power5

import (
	"encoding/binary"

	"repro/internal/isa"
)

// Fast-forward state capture for the phase-skip engine
// (internal/mpisim).  FFNorm appends the chip's normalized state except
// the caches — two equal norms and equal cache states guarantee
// identical future behavior — FFCtrs appends the extensive counters
// that keep growing while the norm recurs, and FFAdvance applies k
// windows of counter deltas while shifting every absolute-cycle field
// by dt.  The three walks MUST visit fields in the same order; see
// isa.FastForwarder for the full contract.  The caches are compared
// incrementally instead of through the norm: FFCacheSnapshot,
// FFCachesSame and FFCacheTrim expose the hierarchy's snapshot log
// (see internal/mem/ffwd.go).
//
// Normalization notes (the non-obvious choices):
//
//   - cycle: consumers of the absolute cycle are the complete/issue
//     context-alternation parity (mod 2) and the decode slot schedule
//     (mod the core's allocation period, a power of two ≤ 64), so only
//     cycle mod the largest live period is captured.
//   - decodePos: its only absolute use is the warm-up dependency guard
//     e.pos >= e.dep with dep ≤ 255, so positions are captured exactly
//     below ffPosHorizon and saturated above it.
//   - doneTimes: the ring is indexed by position mod 64, so it is
//     captured rotated to the decode position (logical slot j holds the
//     completion time of position decodePos-j) with values clamped
//     relative to now — the slot *values* determine every future
//     dependency check, whoever wrote them.
//   - MSHR entries at or below the current cycle are expired: the next
//     issue pass prunes them by value, so only live entries are
//     captured (relative), and expired ones are simply shifted on
//     advance, where they remain expired.

// ffPosHorizon is the decode position beyond which the absolute
// position is behaviorally irrelevant (every dependency distance is
// ≤ 255, and the completion ring wraps at 64).
const ffPosHorizon = 4096

func ffU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func ffRel(now, at int64) uint64 {
	if at > now {
		return uint64(at - now)
	}
	return 0
}

// FFNorm appends the chip's normalized state, caches excluded.  It
// reports false when an installed stream does not support
// fast-forwarding, in which case the caller must fall back to exact
// execution.
//
// The cycle counter is captured modulo ffMaxPeriod, the largest
// decode-allocation period the chip has actually consulted in a
// cycle-dependent way (recorded by notePeriod; every period is a power
// of two dividing 64, so the maximum subsumes them all).  The modulus is
// part of the norm, so a later widening simply invalidates earlier
// matches rather than corrupting them.
func (ch *Chip) FFNorm(b []byte) ([]byte, bool) {
	b = ffU64(b, uint64(ch.ffMaxPeriod))
	b = ffU64(b, uint64(ch.cycle%ch.ffMaxPeriod))
	for _, co := range ch.cores {
		for t := range co.ctx {
			ctx := &co.ctx[t]
			if ctx.stream == nil {
				b = append(b, 0)
			} else {
				ff, ok := ctx.stream.(isa.FastForwarder)
				if !ok || !ff.FFSupported() {
					return b, false
				}
				b = append(b, 1)
				b = ff.FFNorm(b)
			}
			flags := byte(0)
			if ctx.running {
				flags |= 1
			}
			b = append(b, flags, byte(ctx.prio), byte(ctx.priv))
			b = ffU64(b, uint64(ctx.count)<<32|uint64(uint32(ctx.unissued)))
			dp := ctx.decodePos
			if dp > ffPosHorizon {
				dp = ffPosHorizon
			}
			b = ffU64(b, uint64(dp))
			b = ffU64(b, ffRel(ch.cycle, ctx.blockedUntil))
			idx := ctx.head
			for i := 0; i < ctx.count; i++ {
				e := &ctx.ring[idx]
				idx++
				if idx == len(ctx.ring) {
					idx = 0
				}
				flags := byte(0)
				if e.issued {
					flags = 1
				}
				b = append(b, byte(e.op), e.dep, flags)
				b = ffU64(b, e.addr)
				b = ffU64(b, uint64(ch.cycle-e.decodedAt))
				var done uint64
				if e.issued {
					done = ffRel(ch.cycle, e.doneAt)
				}
				b = ffU64(b, done)
				b = ffU64(b, uint64(ctx.decodePos-e.pos))
			}
			for j := int64(1); j <= depRing; j++ {
				v := ctx.doneTimes[(ctx.decodePos-j)&(depRing-1)]
				b = ffU64(b, ffRel(ch.cycle, v))
			}
		}
		b = co.bp.FFNorm(b)
		live := 0
		for _, d := range co.mshr {
			if d > ch.cycle {
				live++
			}
		}
		b = append(b, byte(live))
		for _, d := range co.mshr {
			if d > ch.cycle {
				b = ffU64(b, uint64(d-ch.cycle))
			}
		}
	}
	return b, true
}

// FFCtrs appends the chip's extensive counters, mirroring FFNorm's walk.
func (ch *Chip) FFCtrs(c []int64) []int64 {
	for _, co := range ch.cores {
		for t := range co.ctx {
			ctx := &co.ctx[t]
			if ctx.stream != nil {
				c = ctx.stream.(isa.FastForwarder).FFCtrs(c)
			}
			c = append(c, ctx.decodePos,
				ctx.stats.Decoded, ctx.stats.Completed, ctx.stats.DecodeCycles,
				ctx.stats.Mispredicts, ctx.stats.L1Misses, ctx.stats.PrioritySets)
		}
		c = co.bp.FFCtrs(c)
	}
	return ch.hier.FFCtrs(c)
}

// FFAdvance applies k windows of the per-window counter deltas d
// (consuming the chip's prefix and returning the rest) and shifts every
// absolute-cycle field, including the cycle counter itself, by dt.
func (ch *Chip) FFAdvance(k, dt int64, d []int64) []int64 {
	for _, co := range ch.cores {
		for t := range co.ctx {
			ctx := &co.ctx[t]
			if ctx.stream != nil {
				d = ctx.stream.(isa.FastForwarder).FFAdvance(k, dt, d)
			}
			shift := k * d[0]
			ctx.decodePos += shift
			ctx.stats.Decoded += k * d[1]
			ctx.stats.Completed += k * d[2]
			ctx.stats.DecodeCycles += k * d[3]
			ctx.stats.Mispredicts += k * d[4]
			ctx.stats.L1Misses += k * d[5]
			ctx.stats.PrioritySets += k * d[6]
			d = d[7:]
			ctx.blockedUntil += dt
			idx := ctx.head
			for i := 0; i < ctx.count; i++ {
				e := &ctx.ring[idx]
				idx++
				if idx == len(ctx.ring) {
					idx = 0
				}
				e.pos += shift
				e.decodedAt += dt
				e.doneAt += dt
			}
			// Re-home the completion-time ring: position p's slot is
			// p&63, and every position just moved by shift.
			if s := int(shift & (depRing - 1)); s != 0 {
				var nd [depRing]int64
				for i := 0; i < depRing; i++ {
					nd[(i+s)&(depRing-1)] = ctx.doneTimes[i]
				}
				ctx.doneTimes = nd
			}
			for i := range ctx.doneTimes {
				ctx.doneTimes[i] += dt
			}
		}
		d = co.bp.FFAdvance(k, d)
		for i := range co.mshr {
			co.mshr[i] += dt
		}
	}
	d = ch.hier.FFAdvance(k, d)
	ch.cycle += dt
	return d
}

// FFNorm appends the machine's normalized state (all chips, in order,
// caches excluded); false means some stream does not support
// fast-forwarding.
func (m *Machine) FFNorm(b []byte) ([]byte, bool) {
	ok := true
	for _, ch := range m.chips {
		if b, ok = ch.FFNorm(b); !ok {
			return b, false
		}
	}
	return b, true
}

// FFCacheSnapshot records every chip's cache state as snapshot anchor
// (increasing from call to call) and returns a hash of it.
func (m *Machine) FFCacheSnapshot(anchor int64) uint64 {
	var x uint64
	for _, ch := range m.chips {
		x = x*0x9e3779b97f4a7c15 ^ ch.hier.FFSnapshot(anchor)
	}
	return x
}

// FFCachesSame reports whether every chip's cache state at snapshot a
// equals its state at snapshot b.
func (m *Machine) FFCachesSame(a, b int64) bool {
	for _, ch := range m.chips {
		if !ch.hier.FFSame(a, b) {
			return false
		}
	}
	return true
}

// FFCacheTrim lets the caches forget what only snapshots older than a
// could need.
func (m *Machine) FFCacheTrim(a int64) {
	for _, ch := range m.chips {
		ch.hier.FFTrim(a)
	}
}

// FFCtrs appends the machine's extensive counters.
func (m *Machine) FFCtrs(c []int64) []int64 {
	for _, ch := range m.chips {
		c = ch.FFCtrs(c)
	}
	return c
}

// FFAdvance advances every chip by k windows of deltas and dt cycles.
// It returns the unconsumed remainder of d, which callers should verify
// is empty.
func (m *Machine) FFAdvance(k, dt int64, d []int64) []int64 {
	for _, ch := range m.chips {
		d = ch.FFAdvance(k, dt, d)
	}
	return d
}
