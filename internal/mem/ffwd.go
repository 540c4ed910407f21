package mem

import (
	"math/bits"
	"slices"
	"sort"
)

// Fast-forward state capture for the phase-skip engine (see
// isa.FastForwarder for the contract).
//
// What is compared.  LRU stamps are access-clock values, so a line that
// stays resident without being touched keeps an absolute stamp that can
// never recur — comparing stamps would permanently block snapshot
// matches.  But replacement only ever compares stamps *within a set*
// (the victim is the minimum), so the behavioral state of a set is
// exactly its recency ORDER: the tags of the valid ways sorted
// oldest-to-newest (invalid ways are interchangeable victims, so their
// count is implied).  Two cache states behave identically from now on
// if and only if every set has the same encoding in both.
//
// How it is compared.  The engine snapshots at every anchor (once per
// iteration) and asks whether the state at an earlier anchor A recurs.
// A cache holds thousands of sets but an iteration touches few of them,
// so the comparison is incremental:
//
//   - every Access sets its set's bit in a dirty bitmap;
//   - FFSnapshot re-encodes only the dirty sets, and for each one whose
//     encoding differs from its encoding at the previous snapshot logs
//     (snapshot id, set, old encoding), keeps the new encoding as the
//     set's current one and updates a running hash (XOR over sets of a
//     hash of set and encoding).  The new encoding need not be logged:
//     it is the old encoding of the set's next change, or the current
//     encoding when there is none;
//   - FFSame(A, B) holds when every set logged in (A, B] has the same
//     encoding at B as at A: the old encoding of its first change after
//     A equals the old encoding of its first change after B, or its
//     current encoding when it has not changed since B.
//
// This is exact, not a heuristic: a set without a logged change in
// (A, B] was either untouched or re-encoded to the same bytes at every
// snapshot in between, so its encoding at B is its encoding at A; a set
// with changes is compared encoding against encoding.  So FFSame(A, B)
// answers precisely "the full per-set encodings at A and B are equal",
// the question the engine used to answer by comparing whole-cache byte
// strings.  The running hash only pre-filters candidates.  FFTrim drops
// the log entries that no retained snapshot can need.
//
// On advance, nothing in the arrays needs touching: existing stamps
// keep their order, and future accesses stamp with the (advanced) clock,
// which exceeds every resident stamp just as in an exact run.

// setLog is a cache's snapshot state: the encoding of every set that
// has been live at a snapshot, and the log of encoding changes.
type setLog struct {
	// slot maps a set to 1 + its slot index, or 0 for a set that has
	// not been live at any snapshot (its encoding is empty).
	slot []int32
	// live and enc hold each slot's live-way count and its live tags,
	// oldest first, as of the latest snapshot: Ways words per slot, in
	// chunks of encChunk slots so that adding slots copies nothing.
	live []int32
	enc  [][]uint64
	hash uint64
	// changes[head:] is the retained log, in snapshot order; words holds
	// the encodings it refers to.
	changes []setChange
	head    int
	words   []uint64
}

const encChunk = 256

// cur returns slot s's current encoding buffer (Ways words).
func (l *setLog) cur(s int32, ways int) []uint64 {
	return l.enc[s/encChunk][int(s%encChunk)*ways:][:ways]
}

// setChange records that a slot's encoding changed from
// words[off:off+live] between the previous snapshot and snapshot
// anchor.
type setChange struct {
	anchor int64
	slot   int32
	live   int32
	off    int
}

// encBefore returns the slot's encoding before change e.
func (l *setLog) encBefore(e *setChange) []uint64 { return l.words[e.off:][:e.live] }

// encodeSet appends set's live tags, oldest first, to dst.
func (c *Cache) encodeSet(set int, dst []uint64) []uint64 {
	ways := c.cfg.Ways
	base := set * ways
	var orderBuf [64]int
	order := orderBuf[:0]
	if ways > len(orderBuf) {
		order = make([]int, 0, ways)
	}
	// Insertion-sort the live ways by stamp (stamps are unique: every
	// access increments the clock and writes at most one).
	for w := 0; w < ways; w++ {
		i := base + w
		if c.stamps[i] == 0 {
			continue
		}
		j := len(order)
		order = append(order, i)
		for j > 0 && c.stamps[order[j-1]] > c.stamps[i] {
			order[j] = order[j-1]
			j--
		}
		order[j] = i
	}
	for _, i := range order {
		dst = append(dst, c.tags[i])
	}
	return dst
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// setHash is a set's term in the running hash; an empty set adds 0.
func setHash(set int, enc []uint64) uint64 {
	if len(enc) == 0 {
		return 0
	}
	h := mix64(uint64(set)<<8 | uint64(len(enc)))
	for _, t := range enc {
		h = mix64(h ^ t)
	}
	return h
}

// FFSnapshot records the cache's replacement state as snapshot anchor
// and returns the running hash of that state.  Anchors must increase
// from call to call.  Only sets accessed since the previous snapshot
// are re-encoded, so the cost scales with what an iteration touches,
// not with the resident footprint or the cache geometry.
func (c *Cache) FFSnapshot(anchor int64) uint64 {
	l := c.ff
	first := l == nil
	if first {
		l = &setLog{slot: make([]int32, c.sets)}
		c.ff = l
	}
	ways := c.cfg.Ways
	var buf [64]uint64
	scratch := buf[:0]
	if ways > len(buf) {
		scratch = make([]uint64, 0, ways)
	}
	for wi, w := range c.dirty {
		if w == 0 {
			continue
		}
		c.dirty[wi] = 0
		for ; w != 0; w &= w - 1 {
			set := wi<<6 | bits.TrailingZeros64(w)
			enc := c.encodeSet(set, scratch)
			s := l.slot[set] - 1
			if s < 0 {
				if len(enc) == 0 {
					continue
				}
				s = int32(len(l.live))
				if s%encChunk == 0 {
					l.enc = append(l.enc, make([]uint64, min(encChunk, c.sets)*ways))
				}
				l.live = append(l.live, 0)
				l.slot[set] = s + 1
			}
			cur := l.cur(s, ways)
			old := cur[:l.live[s]]
			if slices.Equal(old, enc) {
				continue
			}
			// The first snapshot logs nothing: no snapshot precedes it.
			if !first {
				l.changes = append(l.changes, setChange{anchor: anchor, slot: s, live: l.live[s], off: len(l.words)})
				l.words = append(l.words, old...)
			}
			l.hash ^= setHash(set, old) ^ setHash(set, enc)
			copy(cur, enc)
			l.live[s] = int32(len(enc))
		}
	}
	return l.hash
}

// FFSame reports whether the cache's replacement state at snapshot a
// equals its state at snapshot b (a < b).  Both must be retained:
// taken, and not older than the last FFTrim point.  The cost scales
// with the changes logged after a.
func (c *Cache) FFSame(a, b int64) bool {
	l := c.ff
	log := l.changes[l.head:]
	lo := sort.Search(len(log), func(i int) bool { return log[i].anchor > a })
	hi := sort.Search(len(log), func(i int) bool { return log[i].anchor > b })
	if lo == hi {
		return true
	}
	// Newest to oldest, so the last index stored is a slot's first
	// change after a (within the window) or after b (past it); -1 means
	// no change after b, so the slot's encoding at b is its current one.
	type visit struct {
		slot     int32
		atA, atB int
	}
	var visits []visit
	pos := make(map[int32]int)
	for i := hi - 1; i >= lo; i-- {
		if j, ok := pos[log[i].slot]; ok {
			visits[j].atA = i
		} else {
			pos[log[i].slot] = len(visits)
			visits = append(visits, visit{slot: log[i].slot, atA: i, atB: -1})
		}
	}
	for i := len(log) - 1; i >= hi; i-- {
		if j, ok := pos[log[i].slot]; ok {
			visits[j].atB = i
		}
	}
	ways := c.cfg.Ways
	for _, v := range visits {
		atB := l.cur(v.slot, ways)[:l.live[v.slot]]
		if v.atB >= 0 {
			atB = l.encBefore(&log[v.atB])
		}
		if !slices.Equal(l.encBefore(&log[v.atA]), atB) {
			return false
		}
	}
	return true
}

// FFTrim forgets the changes that only snapshots older than a could
// need: afterwards FFSame accepts snapshots from a on.
func (c *Cache) FFTrim(a int64) {
	l := c.ff
	for l.head < len(l.changes) && l.changes[l.head].anchor <= a {
		l.head++
	}
	if l.head == len(l.changes) {
		l.changes, l.words, l.head = l.changes[:0], l.words[:0], 0
		return
	}
	// Compact once the dead prefix is the larger half: amortized O(1)
	// per logged change.
	if l.head > len(l.changes)/2 {
		base := l.changes[l.head].off
		l.changes = l.changes[:copy(l.changes, l.changes[l.head:])]
		for i := range l.changes {
			l.changes[i].off -= base
		}
		l.words = l.words[:copy(l.words, l.words[base:])]
		l.head = 0
	}
}

// FFCtrs appends the cache's extensive counters (clock and statistics).
func (c *Cache) FFCtrs(cs []int64) []int64 {
	return append(cs, int64(c.clock), int64(c.stats.Accesses), int64(c.stats.Misses))
}

// FFAdvance applies k windows' worth of counter deltas, consuming this
// cache's prefix of d and returning the rest.
func (c *Cache) FFAdvance(k int64, d []int64) []int64 {
	c.clock += uint64(k * d[0])
	c.stats.Accesses += uint64(k * d[1])
	c.stats.Misses += uint64(k * d[2])
	return d[3:]
}

// FFSnapshot records every level's replacement state as snapshot
// anchor and returns a hash of the whole hierarchy's state.
func (h *Hierarchy) FFSnapshot(anchor int64) uint64 {
	var x uint64
	for _, c := range h.all {
		x = mix64(x ^ c.FFSnapshot(anchor))
	}
	return x
}

// FFSame reports whether every level's state at snapshot a equals its
// state at snapshot b.
func (h *Hierarchy) FFSame(a, b int64) bool {
	for _, c := range h.all {
		if !c.FFSame(a, b) {
			return false
		}
	}
	return true
}

// FFTrim trims every level's change log (see Cache.FFTrim).
func (h *Hierarchy) FFTrim(a int64) {
	for _, c := range h.all {
		c.FFTrim(a)
	}
}

// FFCtrs appends the whole hierarchy's counters.
func (h *Hierarchy) FFCtrs(cs []int64) []int64 {
	for _, c := range h.all {
		cs = c.FFCtrs(cs)
	}
	return cs
}

// FFAdvance advances the whole hierarchy's counters.
func (h *Hierarchy) FFAdvance(k int64, d []int64) []int64 {
	for _, c := range h.all {
		d = c.FFAdvance(k, d)
	}
	return d
}
