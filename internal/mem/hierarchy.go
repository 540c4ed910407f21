package mem

import "fmt"

// HierConfig describes the full memory hierarchy of a chip.  The defaults
// (DefaultHierConfig) follow the POWER5: 32 KB 4-way L1D per core, a
// 1.875 MB 10-way unified L2 shared between the two cores, a large
// off-chip L3 and ~230-cycle memory.
type HierConfig struct {
	Cores      int
	L1         Config
	L2         Config
	L3         Config
	MemLatency int
}

// DefaultHierConfig returns the POWER5-like hierarchy for the given number
// of cores.  The L2 is rounded from the real 1.875 MB 10-way geometry to
// 2 MB 8-way so set counts stay powers of two.
func DefaultHierConfig(cores int) HierConfig {
	return HierConfig{
		Cores:      cores,
		L1:         Config{SizeBytes: 32 << 10, LineBytes: 128, Ways: 4, Latency: 2},
		L2:         Config{SizeBytes: 2 << 20, LineBytes: 128, Ways: 8, Latency: 14},
		L3:         Config{SizeBytes: 32 << 20, LineBytes: 256, Ways: 8, Latency: 90},
		MemLatency: 230,
	}
}

// Hierarchy is the chip-level memory system: private L1s, shared L2/L3.
type Hierarchy struct {
	l1  []*Cache
	l2  *Cache
	l3  *Cache
	all []*Cache // every level: the L1s, then L2, then L3
	cfg HierConfig
	// last is the most recent TouchRange pass.
	last touchPass
}

// touchPass records a TouchRange pass and the state it left behind.
type touchPass struct {
	core         int
	base         uint64
	size, stride int64
	// marks are the clocks and flush counts of core's L1, the L2 and the
	// L3 right after the pass; equal marks later mean no access since.
	marks [3][2]uint64
	// repeatable is set when a second pass would leave every level's
	// tags and recency order as they are (see TouchRange).
	repeatable bool
}

// NewHierarchy builds the hierarchy.
func NewHierarchy(cfg HierConfig) (*Hierarchy, error) {
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("mem: need at least one core, got %d", cfg.Cores)
	}
	h := &Hierarchy{cfg: cfg}
	for i := 0; i < cfg.Cores; i++ {
		c, err := New(cfg.L1)
		if err != nil {
			return nil, fmt.Errorf("mem: L1: %w", err)
		}
		h.l1 = append(h.l1, c)
	}
	var err error
	if h.l2, err = New(cfg.L2); err != nil {
		return nil, fmt.Errorf("mem: L2: %w", err)
	}
	if h.l3, err = New(cfg.L3); err != nil {
		return nil, fmt.Errorf("mem: L3: %w", err)
	}
	h.all = append(append(h.all, h.l1...), h.l2, h.l3)
	return h, nil
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierConfig { return h.cfg }

// LoadLatency walks addr down the hierarchy from core's L1 and returns the
// total access latency in cycles.  Misses allocate at every level walked
// (inclusive fill), so the model captures capacity contention between the
// two cores in the shared L2/L3.
func (h *Hierarchy) LoadLatency(core int, addr uint64) int {
	l1 := h.l1[core]
	if l1.Access(addr) {
		return l1.Latency()
	}
	if h.l2.Access(addr) {
		return l1.Latency() + h.l2.Latency()
	}
	if h.l3.Access(addr) {
		return l1.Latency() + h.l2.Latency() + h.l3.Latency()
	}
	return l1.Latency() + h.l2.Latency() + h.l3.Latency() + h.cfg.MemLatency
}

// StoreLatency models a store through the store queue: the line is
// allocated for footprint effects but the pipeline only pays the L1
// latency, as retirement does not wait for the fill.
func (h *Hierarchy) StoreLatency(core int, addr uint64) int {
	h.LoadLatency(core, addr) // touch for allocation/footprint effects
	return h.l1[core].Latency()
}

// TouchRange loads every stride-th byte (stride > 0) of [base,
// base+size) into core's hierarchy, in address order, as LoadLatency
// would.
//
// A pass that exactly repeats the previous one, with no access to
// core's L1, the L2 or the L3 in between, returns at once when
//
//   - the previous pass missed L1 on every access (so it also walked
//     every line through L2),
//   - the stride is the L1 line size, which the L2 shares, so the pass
//     touches n consecutive lines, each once,
//   - the L2's set count is a multiple of the L1's, so lines sharing an
//     L2 set share an L1 set, and
//   - n is at most the L2's line capacity, so no L2 set receives more
//     than L2-ways of the lines.
//
// Under those conditions the second pass changes no level's tags or
// recency order.  An L1 set that received at most its ways of the lines
// holds them all as its most recent lines and re-hits them in order.
// One that received more holds the last ways of them, and re-walking
// the cycle misses every access and ends on the same lines in the same
// order.  Those misses reach L2 sets whose lines all map to that one L1
// set, so they re-hit all of those sets' lines in order, and the pass
// never reaches the L3.  Only the Stats counters would differ.  Since
// the state is then as the previous pass left it, further repeats
// return at once too.
func (h *Hierarchy) TouchRange(core int, base uint64, size, stride int64) {
	marks := func() [3][2]uint64 {
		var m [3][2]uint64
		for i, c := range [3]*Cache{h.l1[core], h.l2, h.l3} {
			m[i] = [2]uint64{c.clock, c.flushes}
		}
		return m
	}
	p := &h.last
	if p.repeatable && p.core == core && p.base == base && p.size == size &&
		p.stride == stride && p.marks == marks() {
		return
	}
	l1 := h.l1[core]
	accesses, misses := l1.stats.Accesses, l1.stats.Misses
	for off := int64(0); off < size; off += stride {
		h.LoadLatency(core, base+uint64(off))
	}
	n := l1.stats.Accesses - accesses
	l1c, l2c := h.cfg.L1, h.cfg.L2
	*p = touchPass{
		core: core, base: base, size: size, stride: stride, marks: marks(),
		repeatable: l1.stats.Misses-misses == n &&
			stride == int64(l1c.LineBytes) && l2c.LineBytes == l1c.LineBytes &&
			h.l2.sets%l1.sets == 0 && n <= uint64(h.l2.Lines()),
	}
}

// IsL1Miss reports whether addr would miss core's L1 right now, without
// perturbing any state.
func (h *Hierarchy) IsL1Miss(core int, addr uint64) bool {
	return !h.l1[core].Contains(addr)
}

// L1 returns core's private L1 cache (for statistics).
func (h *Hierarchy) L1(core int) *Cache { return h.l1[core] }

// L2 returns the shared L2 cache (for statistics).
func (h *Hierarchy) L2() *Cache { return h.l2 }

// L3 returns the shared L3 cache (for statistics).
func (h *Hierarchy) L3() *Cache { return h.l3 }

// Flush invalidates every level.
func (h *Hierarchy) Flush() {
	for _, c := range h.all {
		c.Flush()
	}
}
