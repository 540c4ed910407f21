package power5

import (
	"fmt"

	"repro/internal/branch"
	"repro/internal/hwpri"
	"repro/internal/isa"
	"repro/internal/mem"
)

// ContextStats are the per-hardware-context performance counters exposed
// by the simulator, mirroring what the paper's authors sampled with the
// POWER5 performance monitor.
type ContextStats struct {
	// Decoded counts instructions accepted by the decode stage.
	Decoded int64
	// Completed counts instructions retired.
	Completed int64
	// DecodeCycles counts cycles in which this context owned the decode
	// stage.
	DecodeCycles int64
	// Mispredicts counts mispredicted branches.
	Mispredicts int64
	// L1Misses counts demand loads that missed the L1.
	L1Misses int64
	// PrioritySets counts executed or-nop priority changes (including
	// ones rejected for insufficient privilege).
	PrioritySets int64
}

// IPC returns instructions per cycle over the given cycle span.
func (s ContextStats) IPC(cycles int64) float64 {
	if cycles <= 0 {
		return 0
	}
	return float64(s.Completed) / float64(cycles)
}

// entry is one in-flight instruction in a context's portion of the shared
// completion window.
type entry struct {
	doneAt    int64
	decodedAt int64
	addr      uint64
	pos       int64
	op        isa.Op
	dep       uint8
	issued    bool
}

// depRing is the number of recent per-context completion times retained
// for dependency lookups; it bounds the expressible dependency distance.
const depRing = 64

// context is one SMT hardware thread context.
type context struct {
	stream  isa.Stream
	running bool
	prio    hwpri.Priority
	priv    hwpri.Privilege

	// ring is the in-flight instruction queue (in program order).
	ring         []entry
	head         int // oldest in-flight
	issueIdx     int // next entry to issue
	tail         int // next free slot
	count        int // entries in [head, tail)
	unissued     int // entries in [issueIdx, tail)
	decodePos    int64
	doneTimes    [depRing]int64
	blockedUntil int64

	stats ContextStats
}

func (ctx *context) reset(windowSize int) {
	ctx.ring = make([]entry, windowSize+1)
	ctx.head, ctx.issueIdx, ctx.tail, ctx.count, ctx.unissued = 0, 0, 0, 0, 0
	ctx.decodePos = 0
	ctx.blockedUntil = 0
	ctx.running = false
	ctx.prio = hwpri.Medium
	ctx.priv = hwpri.ProblemState
}

func (ctx *context) push(e entry) {
	ctx.ring[ctx.tail] = e
	ctx.tail++
	if ctx.tail == len(ctx.ring) {
		ctx.tail = 0
	}
	ctx.count++
	ctx.unissued++
}

// core is one POWER5 core: two contexts sharing decode, issue, units,
// window, predictor and L1.
type core struct {
	ctx   [2]context
	alloc hwpri.Allocation
	bp    *branch.Predictor
	// mshr holds completion times of outstanding L1 misses.
	mshr []int64
	// windowUsed counts entries across both contexts.
	windowUsed int
}

// Chip is the simulated POWER5 processor.
type Chip struct {
	cfg    Config
	cores  []*core
	hier   *mem.Hierarchy
	cycle  int64
	halted bool
	// active counts contexts that are running or have instructions in
	// flight, so the per-cycle idleness check is O(1).
	active int
	// ffMaxPeriod is the largest decode-allocation period consulted in a
	// cycle-dependent way so far (see notePeriod); the phase-skip engine
	// uses it as the modulus under which the cycle counter is behaviorally
	// periodic.  Monotonic, at least 2 (complete/issue parity).
	ffMaxPeriod int64
	// decodeIn is decode's instruction scratch.  A local would escape
	// through the stream interface call and allocate every cycle.
	decodeIn isa.Instr

	// onEmpty, if set, is invoked when a context's stream runs dry.  The
	// handler may install a new stream (SetStream) and adjust priorities;
	// it must not call Step or Run.
	onEmpty func(core, thread int)
}

// New builds a chip from cfg.
func New(cfg Config) (*Chip, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	hier, err := mem.NewHierarchy(cfg.Hier)
	if err != nil {
		return nil, err
	}
	ch := &Chip{cfg: cfg, hier: hier, ffMaxPeriod: 2}
	for i := 0; i < cfg.Cores; i++ {
		co := &core{
			bp:   branch.New(cfg.BranchBits),
			mshr: make([]int64, 0, cfg.MSHRs),
		}
		for t := range co.ctx {
			co.ctx[t].reset(cfg.WindowSize)
		}
		co.alloc = hwpri.Alloc(co.ctx[0].prio, co.ctx[1].prio)
		ch.cores = append(ch.cores, co)
	}
	return ch, nil
}

// MustNew is New that panics on configuration errors.
func MustNew(cfg Config) *Chip {
	ch, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return ch
}

// Config returns the chip configuration.
func (ch *Chip) Config() Config { return ch.cfg }

// Hierarchy exposes the memory hierarchy (for statistics).
func (ch *Chip) Hierarchy() *mem.Hierarchy { return ch.hier }

// Cycle returns the current cycle number.
func (ch *Chip) Cycle() int64 { return ch.cycle }

// Seconds converts a cycle count to seconds at the configured clock.
func (ch *Chip) Seconds(cycles int64) float64 { return float64(cycles) / ch.cfg.ClockHz }

// OnEmpty registers the stream-exhausted callback.
func (ch *Chip) OnEmpty(f func(core, thread int)) { ch.onEmpty = f }

// Halt makes Run and RunUntil return at the end of the current cycle.  It
// may be called from an OnEmpty handler.
func (ch *Chip) Halt() { ch.halted = true }

// Halted reports whether Halt has been called since the last Run.
func (ch *Chip) Halted() bool { return ch.halted }

func (ch *Chip) checkCT(coreID, thread int) {
	if coreID < 0 || coreID >= len(ch.cores) || thread < 0 || thread >= 2 {
		panic(fmt.Sprintf("power5: no context (core %d, thread %d)", coreID, thread))
	}
}

// noteBusy updates the active-context counter after a transition; was is
// the context's busy state (running or in-flight work) before it.
func (ch *Chip) noteBusy(ctx *context, was bool) {
	now := ctx.running || ctx.count > 0
	if now != was {
		if now {
			ch.active++
		} else {
			ch.active--
		}
	}
}

// SetStream installs s as the instruction stream of the given context; a
// nil stream idles the context.  In-flight instructions are unaffected.
func (ch *Chip) SetStream(coreID, thread int, s isa.Stream) {
	ch.checkCT(coreID, thread)
	ctx := &ch.cores[coreID].ctx[thread]
	was := ctx.running || ctx.count > 0
	ctx.stream = s
	ctx.running = s != nil
	ch.noteBusy(ctx, was)
}

// Running reports whether the context currently has a stream.
func (ch *Chip) Running(coreID, thread int) bool {
	ch.checkCT(coreID, thread)
	return ch.cores[coreID].ctx[thread].running
}

// SetPriority sets the hardware thread priority of a context.  This is
// the Thread Status Register path: it performs no privilege checking (the
// OS layer is responsible), unlike or-nop instructions inside streams.
func (ch *Chip) SetPriority(coreID, thread int, p hwpri.Priority) {
	ch.checkCT(coreID, thread)
	if !p.Valid() {
		panic(fmt.Sprintf("power5: invalid priority %d", p))
	}
	co := ch.cores[coreID]
	co.ctx[thread].prio = p
	co.alloc = hwpri.Alloc(co.ctx[0].prio, co.ctx[1].prio)
}

// Priority returns the hardware thread priority of a context.
func (ch *Chip) Priority(coreID, thread int) hwpri.Priority {
	ch.checkCT(coreID, thread)
	return ch.cores[coreID].ctx[thread].prio
}

// SetPrivilege sets the privilege level at which the context is executing;
// it governs which or-nop priority requests take effect.
func (ch *Chip) SetPrivilege(coreID, thread int, pr hwpri.Privilege) {
	ch.checkCT(coreID, thread)
	ch.cores[coreID].ctx[thread].priv = pr
}

// Allocation returns the current decode allocation of a core.
func (ch *Chip) Allocation(coreID int) hwpri.Allocation {
	return ch.cores[coreID].alloc
}

// ReadTSR models mfspr from the context's Thread Status Register
// (Section V-B): it returns the current priority in the TSR encoding.
func (ch *Chip) ReadTSR(coreID, thread int) hwpri.TSR {
	ch.checkCT(coreID, thread)
	return hwpri.TSRFromPriority(ch.cores[coreID].ctx[thread].prio)
}

// WriteTSR models mtspr to the context's Thread Status Register at the
// context's current privilege level; insufficiently privileged writes are
// silently ignored, as on hardware.  It reports whether the priority
// changed.
func (ch *Chip) WriteTSR(coreID, thread int, t hwpri.TSR) bool {
	ch.checkCT(coreID, thread)
	co := ch.cores[coreID]
	next, ok := hwpri.WriteTSR(co.ctx[thread].prio, t, co.ctx[thread].priv)
	if !ok {
		return false
	}
	co.ctx[thread].prio = next
	co.alloc = hwpri.Alloc(co.ctx[0].prio, co.ctx[1].prio)
	return true
}

// TouchRange brings every stride-th byte of [base, base+size) into
// core's cache hierarchy without consuming simulated time, skipping a
// pass that provably changes nothing (see mem.Hierarchy.TouchRange).
// Runtimes use it to pre-warm working sets before the traced region:
// the paper measures steady-state applications whose footprints have
// long been resident, and at the reproduction's reduced workload scale
// a cold first pass would otherwise dominate the run.
func (ch *Chip) TouchRange(coreID int, base uint64, size, stride int64) {
	ch.hier.TouchRange(coreID, base, size, stride)
}

// Stats returns a snapshot of a context's counters.
func (ch *Chip) Stats(coreID, thread int) ContextStats {
	ch.checkCT(coreID, thread)
	return ch.cores[coreID].ctx[thread].stats
}

// Predictor returns a core's shared branch predictor (for statistics).
func (ch *Chip) Predictor(coreID int) *branch.Predictor { return ch.cores[coreID].bp }

// InFlight returns the number of in-flight instructions of a context.
func (ch *Chip) InFlight(coreID, thread int) int {
	ch.checkCT(coreID, thread)
	return ch.cores[coreID].ctx[thread].count
}

// AllIdle reports whether no context is running and no instruction is in
// flight, i.e. further cycles cannot change architectural state.
func (ch *Chip) AllIdle() bool { return ch.active == 0 }

// latency returns the execution latency of an instruction issued now.
// Loads consult the cache hierarchy (and so must only be called once, at
// issue).
func (ch *Chip) latency(coreID int, e *entry) int64 {
	switch e.op {
	case isa.FXMul:
		return int64(ch.cfg.FXMulLatency)
	case isa.FP:
		return int64(ch.cfg.FPLatency)
	case isa.FPDiv:
		return int64(ch.cfg.FPDivLatency)
	case isa.Load:
		return int64(ch.hier.LoadLatency(coreID, e.addr))
	case isa.Store:
		return int64(ch.hier.StoreLatency(coreID, e.addr))
	default:
		return 1
	}
}

// Step advances the chip by one cycle.
func (ch *Chip) Step() {
	for id, co := range ch.cores {
		// A core with no running context and an empty window has nothing
		// to complete, issue or decode; skip all three stages.
		if !co.ctx[0].running && !co.ctx[1].running && co.windowUsed == 0 {
			continue
		}
		ch.complete(co)
		ch.issue(id, co)
		ch.decode(id, co)
	}
	ch.cycle++
}

// Run advances the chip n cycles, stopping early on Halt or when the chip
// goes fully idle.  It returns the number of cycles actually run.
func (ch *Chip) Run(n int64) int64 {
	return ch.RunUntil(ch.cycle + n)
}

// RunUntil advances the chip until the given cycle number, stopping early
// on Halt or full idleness.  It returns the cycles actually run.
func (ch *Chip) RunUntil(target int64) int64 {
	ch.halted = false
	start := ch.cycle
	for ch.cycle < target && !ch.halted {
		ch.Step()
		if ch.AllIdle() {
			break
		}
	}
	return ch.cycle - start
}

// complete retires finished instructions in order, up to CompleteWidth per
// core per cycle, alternating between contexts for fairness.
func (ch *Chip) complete(co *core) {
	budget := ch.cfg.CompleteWidth
	for budget > 0 {
		progress := false
		for t := 0; t < 2 && budget > 0; t++ {
			ctx := &co.ctx[(int(ch.cycle)+t)&1]
			if ctx.count == ctx.unissued || ctx.count == 0 {
				continue
			}
			e := &ctx.ring[ctx.head]
			if !e.issued || e.doneAt > ch.cycle {
				continue
			}
			ctx.head++
			if ctx.head == len(ctx.ring) {
				ctx.head = 0
			}
			ctx.count--
			co.windowUsed--
			if ctx.count == 0 && !ctx.running {
				ch.active--
			}
			ctx.stats.Completed++
			budget--
			progress = true
		}
		if !progress {
			return
		}
	}
}

// issue dispatches ready instructions in per-context program order, up to
// IssueWidth per core per cycle, subject to functional-unit counts,
// dependency readiness and MSHR availability.
func (ch *Chip) issue(coreID int, co *core) {
	budget := ch.cfg.IssueWidth
	var unitFree [isa.NumUnits]int
	unitFree[isa.UnitFX] = ch.cfg.FXUnits
	unitFree[isa.UnitFP] = ch.cfg.FPUnits
	unitFree[isa.UnitLS] = ch.cfg.LSUnits
	unitFree[isa.UnitBR] = ch.cfg.BRUnits

	// Prune expired MSHR entries lazily.
	live := co.mshr[:0]
	for _, d := range co.mshr {
		if d > ch.cycle {
			live = append(live, d)
		}
	}
	co.mshr = live

	// Age-ordered select: each round, issue the oldest unissued
	// instruction across both contexts (by decode time, with cycle-
	// parity rotation breaking ties), as an age-based issue queue
	// would.  This lets the decode-cycle share imposed by the hardware
	// priorities propagate into issue bandwidth when the window is the
	// constraint.
	stalled := [2]bool{}
	for budget > 0 && (!stalled[0] || !stalled[1]) {
		pick := -1
		var pickAge int64
		for t := 0; t < 2; t++ {
			ti := (int(ch.cycle) + t) & 1
			if stalled[ti] {
				continue
			}
			ctx := &co.ctx[ti]
			if ctx.unissued == 0 {
				stalled[ti] = true
				continue
			}
			age := ctx.ring[ctx.issueIdx].decodedAt
			if pick < 0 || age < pickAge {
				pick, pickAge = ti, age
			}
		}
		if pick < 0 {
			return
		}
		ctx := &co.ctx[pick]
		e := &ctx.ring[ctx.issueIdx]
		// In-order issue per context: the context stalls at the first
		// instruction that cannot go this cycle.
		if e.dep > 0 && e.pos >= int64(e.dep) {
			if ctx.doneTimes[(e.pos-int64(e.dep))&(depRing-1)] > ch.cycle {
				stalled[pick] = true
				continue
			}
		}
		unit := e.op.Unit()
		if unitFree[unit] == 0 {
			stalled[pick] = true
			continue
		}
		if e.op == isa.Load && ch.hier.IsL1Miss(coreID, e.addr) {
			if len(co.mshr) >= ch.cfg.MSHRs {
				stalled[pick] = true
				continue
			}
			e.doneAt = ch.cycle + ch.latency(coreID, e)
			co.mshr = append(co.mshr, e.doneAt)
			ctx.stats.L1Misses++
		} else {
			e.doneAt = ch.cycle + ch.latency(coreID, e)
		}
		ctx.doneTimes[e.pos&(depRing-1)] = e.doneAt
		e.issued = true
		ctx.issueIdx++
		if ctx.issueIdx == len(ctx.ring) {
			ctx.issueIdx = 0
		}
		ctx.unissued--
		unitFree[unit]--
		budget--
	}
}

// notePeriod widens ffMaxPeriod when this decode arbitration genuinely
// consults the cycle residue.  Stealing makes most single-thread
// situations cycle-invariant: an inactive context's shared-mode slots
// always pass to the sibling, so only a schedule contested by two active
// contexts, a throttled live thread, or a power-save thread depend on
// the absolute cycle.  Callers pre-check Period > ffMaxPeriod.
func (ch *Chip) notePeriod(co *core, inactive [2]bool) {
	switch co.alloc.Mode {
	case hwpri.ModeShared:
		if inactive[0] || inactive[1] {
			return
		}
	case hwpri.ModeThrottled:
		if inactive[co.alloc.Favored] {
			return
		}
	case hwpri.ModePowerSave:
		if inactive[0] && inactive[1] {
			return
		}
	default:
		return
	}
	ch.ffMaxPeriod = int64(co.alloc.Period)
}

// decode runs the priority-arbitrated decode stage of one core: the
// context owning this decode cycle feeds up to DecodeWidth instructions
// into the shared window.
//
// Slot accounting is strict for priorities above 1: a slot whose owner is
// merely stalled (mispredict redirect, window full) is wasted, as the
// POWER5 time-slices decode cycles by priority regardless of utilization.
// Only an *inactive* context (no stream — architecturally, a napping
// thread) forfeits its slots to the sibling, and in leftover mode
// (priority 1) the low-priority thread dynamically picks up any cycle the
// favored thread cannot use.
func (ch *Chip) decode(coreID int, co *core) {
	inactive := [2]bool{!co.ctx[0].running, !co.ctx[1].running}
	if int64(co.alloc.Period) > ch.ffMaxPeriod {
		ch.notePeriod(co, inactive)
	}
	var owner int
	if co.alloc.Mode == hwpri.ModeLeftover {
		// The priority-1 thread takes only cycles the favored thread
		// cannot *fetch* in — redirect stalls or inactivity.  Window
		// backpressure does not donate the slot: the dispatch cycle is
		// simply lost, as for any stalled owner.
		fetchIdle := [2]bool{
			inactive[0] || ch.cycle < co.ctx[0].blockedUntil,
			inactive[1] || ch.cycle < co.ctx[1].blockedUntil,
		}
		owner = co.alloc.Owner(ch.cycle, fetchIdle)
	} else {
		owner = co.alloc.Owner(ch.cycle, inactive)
	}
	if owner < 0 || ch.decodeBlocked(co, owner) {
		return
	}
	ctx := &co.ctx[owner]
	ctx.stats.DecodeCycles++
	cap := ch.cfg.WindowSize
	if co.ctx[1-owner].running && ch.cfg.ThreadWindowCap < cap {
		cap = ch.cfg.ThreadWindowCap
	}
	in := &ch.decodeIn
	for n := 0; n < ch.cfg.DecodeWidth; n++ {
		if co.windowUsed >= ch.cfg.WindowSize || ctx.count >= cap {
			return
		}
		if !ctx.stream.Next(in) {
			ctx.running = false
			if ctx.count == 0 {
				ch.active--
			}
			if ch.onEmpty != nil {
				ch.onEmpty(coreID, owner)
			}
			return
		}
		e := entry{
			op:        in.Op,
			addr:      in.Addr,
			dep:       in.Dep,
			pos:       ctx.decodePos,
			decodedAt: ch.cycle,
		}
		ctx.decodePos++
		ctx.push(e)
		co.windowUsed++
		ctx.stats.Decoded++
		switch in.Op {
		case isa.Branch:
			if !co.bp.Predict(owner, in.PC, in.Taken) {
				ctx.stats.Mispredicts++
				ctx.blockedUntil = ch.cycle + int64(ch.cfg.MispredictPenalty)
				return
			}
		case isa.OrNop:
			ctx.stats.PrioritySets++
			p := hwpri.Priority(in.Pri)
			if p.Valid() && hwpri.CanSet(ctx.priv, p) && p != ctx.prio {
				ctx.prio = p
				co.alloc = hwpri.Alloc(co.ctx[0].prio, co.ctx[1].prio)
			}
		}
	}
}

// decodeBlocked reports whether context t of core co cannot use a decode
// cycle right now.  Besides stalls and a full window, a context is
// throttled when it already holds ThreadWindowCap entries while its
// sibling is active — the POWER5 dynamic-resource-balancing behaviour.
func (ch *Chip) decodeBlocked(co *core, t int) bool {
	ctx := &co.ctx[t]
	if !ctx.running || ch.cycle < ctx.blockedUntil || co.windowUsed >= ch.cfg.WindowSize {
		return true
	}
	return co.ctx[1-t].running && ctx.count >= ch.cfg.ThreadWindowCap
}
