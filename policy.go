package smtbalance

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/hwpri"
)

// PriorityAction is one priority rewrite a balancing policy requests:
// set rank Rank's hardware thread priority to Priority.  The engine
// applies actions through the simulated kernel's procfs interface, so on
// a vanilla kernel (Options.VanillaKernel) every action is inert —
// exactly the paper's argument for the kernel patch.
type PriorityAction struct {
	Rank     int      // the MPI rank whose priority to rewrite
	Priority Priority // the hardware thread priority to set
}

// Policy is a balancing algorithm: the paper's "smart allocation of
// resources" generalized from one hard-coded balancer to a family.  At
// every barrier release the engine calls Observe with the iteration's
// per-rank measurements; the policy answers with the priority rewrites
// to apply before the next iteration.  Name and Params identify the
// algorithm and its effective parameters — they feed PolicyID, which
// keys the result cache, so two policies that can behave differently
// must never share an identity.
//
// Policies that keep per-run state (all the built-ins do) should also
// implement PolicyBinder; policies that do not are treated as shared
// observers — usable with Machine.Run, but uncacheable and rejected in
// sweeps, where runs execute concurrently.
type Policy interface {
	// Name is the algorithm's registered name (e.g. "dyn").
	Name() string
	// Params returns the policy's effective parameters (after
	// defaulting), e.g. {"maxdiff": "1"}.  May be nil.
	Params() map[string]string
	// Observe consumes one iteration and returns the priority rewrites
	// to apply.  Returning nil means "no change".
	Observe(IterationStats) []PriorityAction
}

// PolicyBinder is implemented by policies that need the run's placement
// or keep per-iteration state: Bind returns a fresh instance for one run
// on the given machine, leaving the receiver untouched.  Binding is what
// makes a policy safe for concurrent sweeps and its results cacheable.
type PolicyBinder interface {
	Policy
	// Bind returns a fresh policy instance for one run of a job placed
	// by pl on topo; the receiver itself must stay unmodified.
	Bind(topo Topology, pl Placement) Policy
}

// PolicyID is a policy's canonical identity: its name, plus its
// effective parameters sorted by key — "dyn(hysteresis=2,maxdiff=1,
// threshold=0.05)".  Equal IDs must mean equal behavior: the ID is the
// policy's contribution to the result-cache key and the sweep ranking
// label.  A nil policy has the empty ID.
func PolicyID(p Policy) string {
	if p == nil {
		return ""
	}
	return idString(p.Name(), p.Params())
}

// idString renders the canonical "name(k=v,...)" identity shared by
// PolicyID and ScenarioID: effective parameters sorted by key, so equal
// behavior always renders equally.
func idString(name string, params map[string]string) string {
	if len(params) == 0 {
		return name
	}
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('(')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(params[k])
	}
	b.WriteByte(')')
	return b.String()
}

// PolicyFactory builds a policy from ParsePolicy parameters.  Factories
// must reject unknown keys: a typo ("maxdif=2") must fail loudly, not
// silently run the default.
type PolicyFactory func(params map[string]string) (Policy, error)

var policyRegistry = struct {
	sync.RWMutex
	m map[string]PolicyFactory //mtlint:guardedby RWMutex
}{m: make(map[string]PolicyFactory)}

// RegisterPolicy adds a policy factory under the given name, making it
// reachable from ParsePolicy (and so from the mtbalance CLI's -policy
// flag and the serve API's policy fields).  Names are case-sensitive,
// must be non-empty and free of the grammar's delimiters (',', '=',
// ';'), and may not be registered twice.
func RegisterPolicy(name string, factory PolicyFactory) error {
	if name == "" || strings.ContainsAny(name, ",=; ") {
		return fmt.Errorf("smtbalance: invalid policy name %q", name)
	}
	if factory == nil {
		return fmt.Errorf("smtbalance: nil factory for policy %q", name)
	}
	policyRegistry.Lock()
	defer policyRegistry.Unlock()
	if _, dup := policyRegistry.m[name]; dup {
		return fmt.Errorf("smtbalance: policy %q already registered", name)
	}
	policyRegistry.m[name] = factory
	return nil
}

// Policies lists the registered policy names, sorted.
func Policies() []string {
	policyRegistry.RLock()
	defer policyRegistry.RUnlock()
	names := make([]string, 0, len(policyRegistry.m))
	for name := range policyRegistry.m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ParsePolicy resolves a policy specification string: a registered name
// followed by comma-separated key=value parameters, e.g. "static",
// "dyn,maxdiff=2", "feedback,gain=8,deadband=0.02".  Whitespace around
// tokens is ignored.  Unknown names and parameters are errors; an
// unknown name's error lists the registered policies, so a typo like
// "dyn2" tells the user what exists instead of leaving them guessing.
func ParsePolicy(s string) (Policy, error) {
	name, params, err := parseSpec("policy", s)
	if err != nil {
		return nil, err
	}
	policyRegistry.RLock()
	factory := policyRegistry.m[name]
	policyRegistry.RUnlock()
	if factory == nil {
		return nil, fmt.Errorf("smtbalance: unknown policy %q (registered: %s)", name, strings.Join(Policies(), ", "))
	}
	pol, err := factory(params)
	if err != nil {
		return nil, fmt.Errorf("smtbalance: policy %q: %w", name, err)
	}
	return pol, nil
}

// parseSpec splits a registry specification — a name followed by
// comma-separated key=value parameters — into its parts.  It is shared
// by ParsePolicy and ParseScenario so the two grammars cannot drift;
// `what` names the registry in error messages ("policy", "scenario").
func parseSpec(what, s string) (name string, params map[string]string, err error) {
	fields := strings.Split(s, ",")
	name = strings.TrimSpace(fields[0])
	if name == "" {
		return "", nil, fmt.Errorf("smtbalance: empty %s specification %q", what, s)
	}
	params = make(map[string]string)
	for _, f := range fields[1:] {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		k, v, ok := strings.Cut(f, "=")
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		if !ok || k == "" || v == "" {
			return "", nil, fmt.Errorf("smtbalance: bad %s parameter %q in %q (want key=value)", what, f, s)
		}
		if _, dup := params[k]; dup {
			return "", nil, fmt.Errorf("smtbalance: duplicate %s parameter %q in %q", what, k, s)
		}
		params[k] = v
	}
	return name, params, nil
}

// paramInt reads an integer parameter, deleting it from the map so the
// factory can detect leftovers.  An explicit value outside [min, max]
// is an error, never silently clamped: a user asking for maxdiff=9 must
// not get maxdiff=4 labeled as their choice.  Absent keys return def
// (0, i.e. "use the policy's default").
func paramInt(params map[string]string, key string, def, min, max int) (int, error) {
	s, ok := params[key]
	if !ok {
		return def, nil
	}
	delete(params, key)
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("parameter %s=%q: want an integer", key, s)
	}
	if v < min || v > max {
		return 0, fmt.Errorf("parameter %s=%d outside %d..%d", key, v, min, max)
	}
	return v, nil
}

// paramFloat reads a float parameter, deleting it from the map; an
// explicit value outside (min, max] is an error, as with paramInt.
func paramFloat(params map[string]string, key string, def, min, max float64) (float64, error) {
	s, ok := params[key]
	if !ok {
		return def, nil
	}
	delete(params, key)
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("parameter %s=%q: want a number", key, s)
	}
	if v <= min || v > max {
		return 0, fmt.Errorf("parameter %s=%g outside (%g, %g]", key, v, min, max)
	}
	return v, nil
}

// rejectLeftovers errors on any parameter the factory did not consume.
func rejectLeftovers(params map[string]string) error {
	for k := range params {
		return fmt.Errorf("unknown parameter %q", k)
	}
	return nil
}

// fmtFloat renders a parameter value canonically (no trailing zeros).
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// orInt and orFloat resolve a policy field's zero value to its default;
// clampDiff additionally bounds a priority difference at the
// architectural maximum of 4, mirroring core.NewDynamic.
func orInt(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
}

func orFloat(v, def float64) float64 {
	if v <= 0 {
		return def
	}
	return v
}

func clampDiff(v, def int) int {
	v = orInt(v, def)
	if v > 4 {
		v = 4
	}
	return v
}

// gapParams parses (and range-checks) the maxdiff/threshold/hysteresis
// trio shared by the gap-watching built-ins, consuming the whole
// parameter map — callers read their extra keys first.
func gapParams(params map[string]string) (maxDiff int, threshold float64, hysteresis int, err error) {
	if maxDiff, err = paramInt(params, "maxdiff", 0, 1, 4); err != nil {
		return
	}
	if threshold, err = paramFloat(params, "threshold", 0, 0, 1); err != nil {
		return
	}
	if hysteresis, err = paramInt(params, "hysteresis", 0, 1, 1<<20); err != nil {
		return
	}
	err = rejectLeftovers(params)
	return
}

// gapParamsMap renders the trio for Params().
func gapParamsMap(maxDiff int, threshold float64, hysteresis int) map[string]string {
	return map[string]string{
		"maxdiff":    strconv.Itoa(maxDiff),
		"threshold":  fmtFloat(threshold),
		"hysteresis": strconv.Itoa(hysteresis),
	}
}

func init() {
	for name, factory := range map[string]PolicyFactory{
		"static": func(params map[string]string) (Policy, error) {
			if err := rejectLeftovers(params); err != nil {
				return nil, err
			}
			return StaticPolicy{}, nil
		},
		"dyn": func(params map[string]string) (Policy, error) {
			md, th, hy, err := gapParams(params)
			return &PaperDynamic{MaxDiff: md, Threshold: th, Hysteresis: hy}, err
		},
		"hier": func(params map[string]string) (Policy, error) {
			md, th, hy, err := gapParams(params)
			return &HierarchicalPolicy{MaxDiff: md, Threshold: th, Hysteresis: hy}, err
		},
		"feedback": func(params map[string]string) (Policy, error) {
			p := &FeedbackPolicy{}
			var err error
			if p.Gain, err = paramFloat(params, "gain", 0, 0, 1024); err != nil {
				return nil, err
			}
			if p.Deadband, err = paramFloat(params, "deadband", 0, 0, 1); err != nil {
				return nil, err
			}
			if p.MaxDiff, err = paramInt(params, "maxdiff", 0, 1, 4); err != nil {
				return nil, err
			}
			if p.Hysteresis, err = paramInt(params, "hysteresis", 0, 1, 1<<20); err != nil {
				return nil, err
			}
			return p, rejectLeftovers(params)
		},
	} {
		if err := RegisterPolicy(name, factory); err != nil {
			panic(err)
		}
	}
}

// pairsOf groups the placement's ranks by the core they share, in core
// order — the balancing unit of every built-in policy (the POWER5
// priority mechanism arbitrates decode cycles between the two contexts
// of one core and nothing else).
func pairsOf(topo Topology, pl Placement) [][2]int {
	topo = topo.normalized()
	ways := topo.SMTWays
	if ways <= 0 {
		ways = 2
	}
	byCore := make(map[int][]int)
	maxCore := 0
	for rank, cpu := range pl.CPU {
		c := cpu / ways
		byCore[c] = append(byCore[c], rank)
		if c > maxCore {
			maxCore = c
		}
	}
	var pairs [][2]int
	for c := 0; c <= maxCore; c++ {
		if ranks := byCore[c]; len(ranks) == 2 {
			pairs = append(pairs, [2]int{ranks[0], ranks[1]})
		}
	}
	return pairs
}

// pairActions renders a pair's signed priority difference as the two
// writes implementing it, favored rank first — the paper's Section VI
// priority ladder (PrioritiesFor).
func pairActions(pair [2]int, diff int) []PriorityAction {
	var pa, pb hwpri.Priority
	if diff >= 0 {
		pa, pb = core.PrioritiesFor(diff)
	} else {
		pb, pa = core.PrioritiesFor(-diff)
	}
	return []PriorityAction{
		{Rank: pair[0], Priority: Priority(pa)},
		{Rank: pair[1], Priority: Priority(pb)},
	}
}

// StaticPolicy never moves a priority: the launch placement is the whole
// plan.  It is the control every other policy is measured against, and
// the explicit form of "no balancing" for sweeps over Space.Policies.
type StaticPolicy struct{}

// Name implements Policy.
func (StaticPolicy) Name() string { return "static" }

// Params implements Policy.
func (StaticPolicy) Params() map[string]string { return nil }

// Observe implements Policy: no actions, ever.
func (StaticPolicy) Observe(IterationStats) []PriorityAction { return nil }

// Bind implements PolicyBinder; StaticPolicy is stateless.
func (StaticPolicy) Bind(Topology, Placement) Policy { return StaticPolicy{} }

// PaperDynamic is the paper's Section VIII proposal: at every barrier
// release it compares the computation times of the two ranks of each
// core and, once the imbalance points the same way for Hysteresis
// iterations, shifts the pair's priority difference one step toward the
// laggard, backing off when the imbalance inverts.
type PaperDynamic struct {
	// MaxDiff bounds the priority difference (default 1; the paper's
	// Case D shows why large differences are dangerous).
	MaxDiff int
	// Threshold is the relative per-iteration gap (gap / iteration
	// length) below which the pair counts as balanced.  Default 0.05.
	Threshold float64
	// Hysteresis is the number of consecutive same-direction iterations
	// required before a move.  Default 2.
	Hysteresis int

	bound *core.Dynamic // per-run instance state (nil on the prototype)
}

// effective returns the defaulted parameters, mirroring core.NewDynamic.
func (p *PaperDynamic) effective() (maxDiff int, threshold float64, hysteresis int) {
	return clampDiff(p.MaxDiff, 1), orFloat(p.Threshold, 0.05), orInt(p.Hysteresis, 2)
}

// Name implements Policy.
func (p *PaperDynamic) Name() string { return "dyn" }

// Params implements Policy.
func (p *PaperDynamic) Params() map[string]string {
	return gapParamsMap(p.effective())
}

// Bind implements PolicyBinder.
func (p *PaperDynamic) Bind(topo Topology, pl Placement) Policy {
	maxDiff, threshold, hysteresis := p.effective()
	cp := *p
	cp.bound = core.NewDynamic(core.DynamicConfig{
		CPU:        append([]int(nil), pl.CPU...),
		Threshold:  threshold,
		MaxDiff:    maxDiff,
		Hysteresis: hysteresis,
	})
	return &cp
}

// Observe implements Policy.
func (p *PaperDynamic) Observe(st IterationStats) []PriorityAction {
	if p.bound == nil {
		return nil // unbound prototype: identity only
	}
	acts := p.bound.Observe(st.ComputeCycles, st.ArrivalCycle, st.ReleaseCycle)
	out := make([]PriorityAction, 0, len(acts))
	for _, a := range acts {
		out = append(out, PriorityAction{Rank: a.Rank, Priority: Priority(a.Prio)})
	}
	return out
}

// HierarchicalPolicy balances at two levels of the machine's topology,
// in the spirit of hierarchical schedulers (Thibault) and two-level load
// balancers: the coarse level ranks chips by their critical path (the
// slowest rank on each chip), the fine level then retunes priorities
// within each core — aggressively (up to MaxDiff) on chips at the
// machine-wide critical path, conservatively (at most one step) on
// chips with slack, where an overshoot cannot improve the makespan but
// can still pay the paper's Case D penalty.
type HierarchicalPolicy struct {
	// MaxDiff bounds the priority difference on critical-path chips
	// (default 3); chips with slack are always bounded at 1.
	MaxDiff int
	// Threshold is both the relative per-iteration gap below which a
	// pair counts as balanced and the relative slack below which a chip
	// counts as critical.  Default 0.05.
	Threshold float64
	// Hysteresis is the number of consecutive same-direction iterations
	// required before a move.  Default 2.
	Hysteresis int

	run *hierRun // per-run state (nil on the prototype)
}

// hierRun is HierarchicalPolicy's per-run state.
type hierRun struct {
	pairs       [][2]int
	chipOfPair  []int
	chips       int
	diff        []int
	streak      []int
	lastDir     []int
	lastRelease int64
}

// effective returns the defaulted parameters.
func (p *HierarchicalPolicy) effective() (maxDiff int, threshold float64, hysteresis int) {
	return clampDiff(p.MaxDiff, 3), orFloat(p.Threshold, 0.05), orInt(p.Hysteresis, 2)
}

// Name implements Policy.
func (p *HierarchicalPolicy) Name() string { return "hier" }

// Params implements Policy.
func (p *HierarchicalPolicy) Params() map[string]string {
	return gapParamsMap(p.effective())
}

// Bind implements PolicyBinder.
func (p *HierarchicalPolicy) Bind(topo Topology, pl Placement) Policy {
	topo = topo.normalized()
	pairs := pairsOf(topo, pl)
	run := &hierRun{
		pairs:      pairs,
		chipOfPair: make([]int, len(pairs)),
		chips:      topo.Chips,
		diff:       make([]int, len(pairs)),
		streak:     make([]int, len(pairs)),
		lastDir:    make([]int, len(pairs)),
	}
	for i, pair := range pairs {
		chip, _, _ := topo.Locate(pl.CPU[pair[0]])
		run.chipOfPair[i] = chip
	}
	cp := *p
	cp.run = run
	return &cp
}

// Observe implements Policy.
func (p *HierarchicalPolicy) Observe(st IterationStats) []PriorityAction {
	r := p.run
	if r == nil {
		return nil
	}
	maxDiff, threshold, hysteresis := p.effective()
	iterLen := st.ReleaseCycle - r.lastRelease
	r.lastRelease = st.ReleaseCycle
	if iterLen <= 0 {
		return nil
	}
	signal := st.ComputeCycles
	if signal == nil {
		signal = st.ArrivalCycle
	}

	// Coarse level: each chip's critical path is its slowest rank this
	// iteration; the machine's critical path is the slowest chip.
	chipMax := make([]int64, r.chips)
	for i, pair := range r.pairs {
		chip := r.chipOfPair[i]
		for _, rank := range [2]int{pair[0], pair[1]} {
			if rank < len(signal) && signal[rank] > chipMax[chip] {
				chipMax[chip] = signal[rank]
			}
		}
	}
	var globalMax int64
	for _, m := range chipMax {
		if m > globalMax {
			globalMax = m
		}
	}

	// Fine level: per-core gap balancing within the chip's budget.
	var acts []PriorityAction
	for i, pair := range r.pairs {
		budget := 1
		if float64(chipMax[r.chipOfPair[i]]) >= float64(globalMax)*(1-threshold) {
			budget = maxDiff // this chip bounds the machine: full authority
		}
		a, b := pair[0], pair[1]
		gap := float64(signal[a]-signal[b]) / float64(iterLen)
		dir := 0
		switch {
		case gap > threshold:
			dir = 1
		case gap < -threshold:
			dir = -1
		}
		// A diff beyond the (possibly shrunk) budget is walked back even
		// when the pair looks balanced: the slack chip must not keep an
		// aggressive skew it no longer needs.
		if dir == 0 && r.diff[i] > budget {
			dir = -1
		}
		if dir == 0 && r.diff[i] < -budget {
			dir = 1
		}
		if dir == 0 {
			r.streak[i], r.lastDir[i] = 0, 0
			continue
		}
		if dir != r.lastDir[i] {
			r.lastDir[i] = dir
			r.streak[i] = 1
		} else {
			r.streak[i]++
		}
		if r.streak[i] < hysteresis {
			continue
		}
		r.streak[i] = 0
		want := r.diff[i] + dir
		if want > budget {
			want = budget
		}
		if want < -budget {
			want = -budget
		}
		if want == r.diff[i] {
			continue
		}
		r.diff[i] = want
		acts = append(acts, pairActions(pair, want)...)
	}
	return acts
}

// FeedbackPolicy is a proportional controller on each pair's
// compute-share error: the error e = (Ca-Cb)/(Ca+Cb) is mapped through
// Gain to a target priority difference, and the pair's difference steps
// toward the target once the controller has wanted the same direction
// for Hysteresis consecutive iterations.  The Deadband suppresses
// reactions to near-balanced pairs, where measurement noise would
// otherwise make the controller oscillate.
type FeedbackPolicy struct {
	// Gain converts the compute-share error into priority steps
	// (default 6: a 17% share error asks for one step).
	Gain float64
	// Deadband is the |error| below which the pair counts as balanced
	// (default 0.04).
	Deadband float64
	// MaxDiff bounds the priority difference (default 3).
	MaxDiff int
	// Hysteresis is the number of consecutive iterations the controller
	// must want the same direction before moving.  Default 2.
	Hysteresis int

	run *feedbackRun // per-run state (nil on the prototype)
}

// feedbackRun is FeedbackPolicy's per-run state.
type feedbackRun struct {
	pairs   [][2]int
	diff    []int
	streak  []int
	lastDir []int
}

// effective returns the defaulted parameters.
func (p *FeedbackPolicy) effective() (gain, deadband float64, maxDiff, hysteresis int) {
	return orFloat(p.Gain, 6), orFloat(p.Deadband, 0.04), clampDiff(p.MaxDiff, 3), orInt(p.Hysteresis, 2)
}

// Name implements Policy.
func (p *FeedbackPolicy) Name() string { return "feedback" }

// Params implements Policy.
func (p *FeedbackPolicy) Params() map[string]string {
	gain, deadband, maxDiff, hysteresis := p.effective()
	return map[string]string{
		"gain":       fmtFloat(gain),
		"deadband":   fmtFloat(deadband),
		"maxdiff":    strconv.Itoa(maxDiff),
		"hysteresis": strconv.Itoa(hysteresis),
	}
}

// Bind implements PolicyBinder.
func (p *FeedbackPolicy) Bind(topo Topology, pl Placement) Policy {
	pairs := pairsOf(topo, pl)
	cp := *p
	cp.run = &feedbackRun{
		pairs:   pairs,
		diff:    make([]int, len(pairs)),
		streak:  make([]int, len(pairs)),
		lastDir: make([]int, len(pairs)),
	}
	return &cp
}

// Observe implements Policy.
func (p *FeedbackPolicy) Observe(st IterationStats) []PriorityAction {
	r := p.run
	if r == nil {
		return nil
	}
	gain, deadband, maxDiff, hysteresis := p.effective()
	signal := st.ComputeCycles
	if signal == nil {
		signal = st.ArrivalCycle
	}
	var acts []PriorityAction
	for i, pair := range r.pairs {
		a, b := pair[0], pair[1]
		if a >= len(signal) || b >= len(signal) {
			continue
		}
		sum := float64(signal[a] + signal[b])
		if sum <= 0 {
			r.streak[i], r.lastDir[i] = 0, 0
			continue
		}
		err := float64(signal[a]-signal[b]) / sum
		target := r.diff[i]
		if err > deadband || err < -deadband {
			// Proportional term, rounded to whole priority steps.
			t := gain * err
			if t >= 0 {
				target = int(t + 0.5)
			} else {
				target = int(t - 0.5)
			}
			if target > maxDiff {
				target = maxDiff
			}
			if target < -maxDiff {
				target = -maxDiff
			}
		} else if r.diff[i] != 0 {
			target = 0 // balanced: relax the skew back out
		}
		dir := 0
		switch {
		case target > r.diff[i]:
			dir = 1
		case target < r.diff[i]:
			dir = -1
		}
		if dir == 0 {
			r.streak[i], r.lastDir[i] = 0, 0
			continue
		}
		if dir != r.lastDir[i] {
			r.lastDir[i] = dir
			r.streak[i] = 1
		} else {
			r.streak[i]++
		}
		if r.streak[i] < hysteresis {
			continue
		}
		r.streak[i] = 0
		r.diff[i] += dir
		acts = append(acts, pairActions(pair, r.diff[i])...)
	}
	return acts
}
