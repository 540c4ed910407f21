// Package mem models the POWER5 memory hierarchy used by the chip
// simulator: per-core L1 data caches, a unified L2 shared by both cores,
// an off-chip victim-style L3, and main memory.  Caches are set-associative
// with true-LRU replacement; the model is a latency/contention model, not a
// coherence simulator — the workloads of the paper are MPI processes with
// disjoint address spaces, so sharing effects are capacity contention in
// the shared levels, which this model captures.
package mem

import "fmt"

// Config describes one cache level.
type Config struct {
	// SizeBytes is the total capacity.  Must be a multiple of
	// LineBytes*Ways.
	SizeBytes int
	// LineBytes is the cache line size (power of two).
	LineBytes int
	// Ways is the set associativity.
	Ways int
	// Latency is the access latency in cycles when this level hits.
	Latency int
}

// Stats counts accesses to one cache level.
type Stats struct {
	Accesses uint64
	Misses   uint64
}

// MissRate returns Misses/Accesses, or 0 when the cache is untouched.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is a set-associative cache with LRU replacement.
type Cache struct {
	cfg       Config
	sets      int
	lineShift uint
	setMask   uint64
	// tags and stamps are sets×ways, flattened.  stamp 0 = invalid.
	tags   []uint64
	stamps []uint64
	clock  uint64
	stats  Stats
	// flushes counts Flush calls, so a clock that Flush reset and
	// accesses then brought back to an old value still reads as changed.
	flushes uint64
	// dirty has one bit per set, set by every access to the set and
	// cleared when FFSnapshot re-encodes it (see ffwd.go).
	dirty []uint64
	// ff is the snapshot log, built at the first FFSnapshot.
	ff *setLog
}

// New builds a cache from cfg, validating its geometry.
func New(cfg Config) (*Cache, error) {
	if cfg.SizeBytes <= 0 || cfg.LineBytes <= 0 || cfg.Ways <= 0 {
		return nil, fmt.Errorf("mem: non-positive cache geometry %+v", cfg)
	}
	if cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		return nil, fmt.Errorf("mem: line size %d not a power of two", cfg.LineBytes)
	}
	setBytes := cfg.LineBytes * cfg.Ways
	if cfg.SizeBytes%setBytes != 0 {
		return nil, fmt.Errorf("mem: size %d not a multiple of way capacity %d", cfg.SizeBytes, setBytes)
	}
	sets := cfg.SizeBytes / setBytes
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("mem: set count %d not a power of two", sets)
	}
	shift := uint(0)
	for 1<<shift < cfg.LineBytes {
		shift++
	}
	return &Cache{
		cfg:       cfg,
		sets:      sets,
		lineShift: shift,
		setMask:   uint64(sets - 1),
		tags:      make([]uint64, sets*cfg.Ways),
		stamps:    make([]uint64, sets*cfg.Ways),
		dirty:     make([]uint64, (sets+63)/64),
	}, nil
}

// MustNew is New that panics on configuration errors; intended for
// package-level defaults that are known valid.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the geometry the cache was built with.
func (c *Cache) Config() Config { return c.cfg }

// Latency returns the hit latency in cycles.
func (c *Cache) Latency() int { return c.cfg.Latency }

// Stats returns the access counters.
func (c *Cache) Stats() Stats { return c.stats }

// Access looks up addr, allocating the line on a miss (write-allocate for
// stores as well), and reports whether it hit.
func (c *Cache) Access(addr uint64) bool {
	c.clock++
	c.stats.Accesses++
	line := addr >> c.lineShift
	set := int(line & c.setMask)
	c.dirty[set>>6] |= 1 << (set & 63)
	base := set * c.cfg.Ways
	victim := base
	victimStamp := ^uint64(0)
	for w := 0; w < c.cfg.Ways; w++ {
		i := base + w
		if c.stamps[i] != 0 && c.tags[i] == line {
			c.stamps[i] = c.clock
			return true
		}
		if c.stamps[i] < victimStamp {
			victimStamp = c.stamps[i]
			victim = i
		}
	}
	c.stats.Misses++
	c.tags[victim] = line
	c.stamps[victim] = c.clock
	return false
}

// Contains reports whether addr is currently cached, without touching LRU
// state or statistics.  It exists for tests and invariant checks.
func (c *Cache) Contains(addr uint64) bool {
	line := addr >> c.lineShift
	set := int(line & c.setMask)
	base := set * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		i := base + w
		if c.stamps[i] != 0 && c.tags[i] == line {
			return true
		}
	}
	return false
}

// Flush invalidates every line and clears statistics.
func (c *Cache) Flush() {
	for i := range c.stamps {
		c.stamps[i] = 0
	}
	for set := 0; set < c.sets; set++ {
		c.dirty[set>>6] |= 1 << (set & 63)
	}
	c.clock = 0
	c.flushes++
	c.stats = Stats{}
}

// Lines returns the total number of lines the cache can hold.
func (c *Cache) Lines() int { return c.sets * c.cfg.Ways }
