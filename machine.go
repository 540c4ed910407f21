package smtbalance

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"iter"
	"sync"

	"repro/internal/core"
	"repro/internal/diskcache"
	"repro/internal/hwpri"
	"repro/internal/mpisim"
	"repro/internal/sweep"
)

// Machine is a reusable handle on one simulated machine and its
// simulation environment: the paper's iterative profile → re-place →
// re-prioritize workflow runs many configurations against the same
// (topology, options) pair, and Machine is the object that owns that
// pair.  It is safe for concurrent use — the simulator is pure, so
// concurrent Run/Sweep/Optimize calls share nothing but the result
// cache — and every method takes a context, cancelling promptly (the
// simulator checks the context at least once per million simulated
// cycles).
//
// Because the simulator is deterministic, the Machine memoizes results:
// a canonical hash of (topology, options, job, placement) keys a bounded
// in-memory cache, so repeated configurations — a sweep resumed under a
// different objective, Optimize re-running its winner, identical service
// requests — are served from memory.  CacheStats reports the hit rate.
type Machine struct {
	opts  Options
	cache *resultCache
}

// NewMachine builds a Machine from the simulation options (nil means the
// paper's environment: the default 1×2×2 topology, patched kernel, warm
// caches).  The options are copied; later mutation of opts does not
// affect the Machine.  Options.OnIteration, if set, disables result
// caching for Run calls (the callback must observe every iteration), and
// is rejected by Sweep as before.  Options.Policy attaches a balancing
// policy to every run — including sweeps and Optimize, whose whole space
// then evaluates under it; RunPolicy overrides it per call, and sweeps
// over several policies use Space.Policies on a policy-less machine.
func NewMachine(opts *Options) (*Machine, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	o.Topology = o.Topology.normalized()
	if err := o.Topology.Validate(); err != nil {
		return nil, fmt.Errorf("smtbalance: invalid Options.Topology: %w", err)
	}
	return &Machine{opts: o, cache: newResultCache()}, nil
}

// Topology returns the machine's (normalized) topology.
func (m *Machine) Topology() Topology { return m.opts.Topology }

// Options returns a copy of the machine's simulation options.
func (m *Machine) Options() Options { return m.opts }

// CacheStats returns the machine's result-cache counters.
func (m *Machine) CacheStats() CacheStats { return m.cache.stats() }

// ClearCache drops every cached result and metric (the hit/miss
// counters survive).  Long-lived services can call it to release the
// memory held by cached traces; correctness never depends on the cache.
// The persistent disk tier, if attached, is left untouched — dropped
// entries are revived from it on demand.
func (m *Machine) ClearCache() { m.cache.clear() }

// UseDiskCache attaches a persistent, content-addressed disk tier under
// the machine's in-memory result cache, rooted at dir: results and
// sweep metrics are persisted as they are computed, and cache misses
// consult the disk before simulating — so warm results survive process
// restarts, and any number of replicas pointed at one shared directory
// (local disk, NFS) serve each other's work.  Records are keyed by the
// same canonical SHA-256 hashes as the in-memory tier and stored under
// a version subdirectory, so a cache-key format change simply starts a
// fresh tree.  Disk IO is strictly best-effort: read or decode failures
// degrade to re-simulation, never to request failures.
//
// Attach the tier right after NewMachine, before serving traffic; a nil
// or failed attach leaves the machine purely in-memory.
func (m *Machine) UseDiskCache(dir string) error {
	store, err := diskcache.Open(dir, diskVersion)
	if err != nil {
		return fmt.Errorf("smtbalance: %w", err)
	}
	m.cache.setDisk(store)
	return nil
}

// ctxErrOf maps a simulator error caused by ctx's cancellation back to
// the bare ctx.Err(), so callers can compare against it directly.
func ctxErrOf(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil && errors.Is(err, cerr) {
		return cerr
	}
	return err
}

// Run executes the job under the placement on this machine, with the
// machine's configured balancing policy (Options.Policy) attached.
// Identical (job, placement, policy) runs are served from the result
// cache unless Options.OnIteration or Options.LoadDrift is set.
// Cancelling ctx aborts the simulation promptly with ctx.Err().
func (m *Machine) Run(ctx context.Context, job Job, pl Placement) (*Result, error) {
	return m.RunPolicy(ctx, job, pl, m.opts.Policy)
}

// RunPolicy is Run with an explicit balancing policy, overriding the
// machine's configured one for this call (nil runs without a policy).
// It is the per-request form the serve API and policy sweeps use: one
// Machine, one cache, many policies.
func (m *Machine) RunPolicy(ctx context.Context, job Job, pl Placement, pol Policy) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := pl.validate(m.opts.Topology); err != nil {
		return nil, err
	}
	env := m.opts
	env.Policy = pol
	if env.OnIteration != nil || env.LoadDrift != nil || !policyCacheable(pol) {
		return runSim(ctx, job, pl, &env)
	}
	return m.evaluate(ctx, slot{key: placementKey(envJobKey(env, job), pl), full: true}, job, pl, &env)
}

// evaluate answers one cacheable configuration — a Run (s.full) or a
// sweep point — through the outcome store's tiers: memory, then the
// flight group (identical concurrent evaluations share one
// computation), then, for the flight's leader, the disk, and only then
// the simulator.  A leader's failure is published to its followers, but
// a follower whose own context is still live retries rather than
// inheriting the leader's cancellation.  Sweep points keep only their
// metrics.  The caller owns the returned Result.
func (m *Machine) evaluate(ctx context.Context, s slot, job Job, pl Placement, env *Options) (*Result, error) {
	for {
		if res, ok := m.cache.get(s); ok {
			return res, nil
		}
		f, leader := m.cache.flights.join(s)
		if !leader {
			m.cache.noteCoalesced()
			select {
			case <-f.done:
				if f.err == nil {
					return f.val.clone(), nil
				}
				if !errors.Is(f.err, context.Canceled) && !errors.Is(f.err, context.DeadlineExceeded) {
					return nil, f.err // deterministic failure: re-running would fail too
				}
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				continue // the leader was cancelled, we were not: retry
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		res, ok := m.cache.getDisk(s)
		if !ok {
			sim, err := runSim(ctx, job, pl, env)
			if err != nil {
				m.cache.flights.forget(s)
				f.publish(nil, err)
				return nil, err
			}
			res = sim
			if !s.full {
				res = &Result{Seconds: sim.Seconds, Cycles: sim.Cycles, ImbalancePct: sim.ImbalancePct}
			}
			m.cache.putDisk(s, res)
		}
		m.cache.put(s, res)
		m.cache.flights.forget(s)
		// Followers get a private copy: the leader's caller owns res and
		// may mutate it, while f.val must stay immutable under their
		// concurrent clones.
		f.publish(res.clone(), nil)
		return res, nil
	}
}

// validateSweepJob checks a sweep's rank count against the machine's
// topology up front, in every path, with the same descriptive error
// style Placement.validate uses.
func validateSweepJob(job Job, t Topology) error {
	n := len(job.Ranks)
	if n == 0 {
		return fmt.Errorf("smtbalance: sweep job %q has no ranks", job.Name)
	}
	if n%2 != 0 {
		return fmt.Errorf("smtbalance: sweep needs an even rank count (ranks pair on SMT cores), got %d; add a rank or drop one", n)
	}
	if n > t.Contexts() {
		return fmt.Errorf("smtbalance: sweep job has %d ranks, but the %s topology has only %d hardware contexts; grow Options.Topology (e.g. Chips: %d) or shrink the job",
			n, t, t.Contexts(), (n+t.CoresPerChip*t.SMTWays-1)/(t.CoresPerChip*t.SMTWays))
	}
	return nil
}

// sweepAll evaluates the whole space — the cross product of the
// placement × priority points with Space.Policies, when set — and
// returns the final ranking.
func (m *Machine) sweepAll(ctx context.Context, job Job, space Space, opts *SweepOptions) (*SweepResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts == nil {
		opts = &SweepOptions{}
	}
	if m.opts.OnIteration != nil {
		return nil, fmt.Errorf("smtbalance: Options.OnIteration is not supported in sweeps; set Options.Policy or list policies in Space.Policies")
	}
	if m.opts.LoadDrift != nil {
		return nil, fmt.Errorf("smtbalance: Options.LoadDrift is not supported in sweeps; precompute the drift into the job (e.g. a phaseshift Scenario) so every point runs the same program")
	}
	if err := validateSweepJob(job, m.opts.Topology); err != nil {
		return nil, err
	}
	pols := space.Policies
	if m.opts.Policy != nil {
		// A machine-level policy is the environment: every point runs
		// under it (so Optimize works on a policy machine).  Ranking
		// several policies needs a policy-less machine, where the axis
		// belongs to the space.
		if len(pols) > 0 {
			return nil, fmt.Errorf("smtbalance: the machine already fixes policy %q; Space.Policies must be empty (use a policy-less Machine to rank policies)", PolicyID(m.opts.Policy))
		}
		pols = []Policy{m.opts.Policy}
	}
	for i, pol := range pols {
		if pol == nil {
			return nil, fmt.Errorf("smtbalance: Space.Policies[%d] is nil; use StaticPolicy{} for the no-balancing control", i)
		}
		if _, ok := pol.(PolicyBinder); !ok {
			return nil, fmt.Errorf("smtbalance: policy %q does not implement PolicyBinder; sweep runs execute concurrently and need a fresh per-run instance", PolicyID(pol))
		}
	}
	if len(pols) == 0 {
		pols = []Policy{nil} // today's policy-less sweep, byte-identical
	}
	n := len(job.Ranks)
	sp := sweep.Space{Topology: m.opts.Topology.inner()}
	if space.FixPairing {
		pairing := make(sweep.Pairing, 0, n/2)
		for c := 0; c < n/2; c++ {
			pairing = append(pairing, [2]int{2 * c, 2*c + 1})
		}
		sp.Pairings = []sweep.Pairing{pairing}
		// Only priorities may move: pin the core map to the identity
		// instead of letting a multi-chip topology re-spread the pairs.
		sp.Assignments = [][]int{nil}
	}
	for _, p := range space.Priorities {
		if !p.Valid() {
			return nil, fmt.Errorf("smtbalance: invalid priority %d in space", p)
		}
		sp.Alphabet = append(sp.Alphabet, hwpri.Priority(p))
	}
	points, err := sweep.Enumerate(n, sp)
	if err != nil {
		return nil, err
	}

	// Two-level screening: rank the points with the analytical cost
	// predictor and keep only the predicted frontier (plus guard band)
	// for simulation.  The shortlist stays in enumeration order, so the
	// fine level's tie-breaking matches the exhaustive sweep's, and the
	// surviving points run through the very same caching RunFn below —
	// identical cache keys, identical metrics.  With a policy axis the
	// placement points are screened once (the predictor is policy-blind:
	// policies act online, on top of whatever placement they are given)
	// and the shortlist is evaluated under every policy.
	if opts.Screen < 0 {
		return nil, fmt.Errorf("smtbalance: SweepOptions.Screen must be >= 0, got %d", opts.Screen)
	}
	screened := 0
	if opts.Screen > 0 {
		shortlist := sweep.Screen(job.inner(), points, m.opts.Topology.inner(),
			opts.Screen, sweep.GuardBand(len(points)), core.DefaultModel())
		if len(shortlist) < len(points) {
			screened = len(points) - len(shortlist)
			kept := make([]sweep.Point, len(shortlist))
			for i, pi := range shortlist {
				kept[i] = points[pi]
			}
			points = kept
		}
	}

	// Fan the whole policy × placement × priority cross product through
	// one worker pool: point i under policy p is combined index
	// p*len(points)+i, so a small point space still parallelizes across
	// policies, scores normalize against the global fastest run, and
	// the engine's total order (Score, Cycles, Index) ranks the merged
	// space deterministically — policy order is the outer tiebreak.
	combined := points
	if len(pols) > 1 {
		// The policy axis multiplies the space, so the enumeration cap
		// must hold for the product, not just the point count.
		if len(points) > sweep.MaxSpacePoints/len(pols) {
			return nil, fmt.Errorf("smtbalance: %d placement points × %d policies exceeds the %d-configuration sweep cap; shrink the space (FixPairing, smaller alphabet) or the policy list",
				len(points), len(pols), sweep.MaxSpacePoints)
		}
		combined = make([]sweep.Point, 0, len(points)*len(pols))
		for range pols {
			combined = append(combined, points...)
		}
	}
	// Each policy's environment is the machine's options with that
	// policy attached; every point evaluates through the machine's
	// outcome store, so repeated points — across sweeps, Optimize and
	// matrix cells — are served or coalesced there.
	envs := make([]Options, len(pols))
	bases := make([][sha256.Size]byte, len(pols))
	for i, pol := range pols {
		envs[i] = m.opts
		envs[i].Policy = pol
		bases[i] = envJobKey(envs[i], job)
	}
	res, err := sweep.SweepCtx(ctx, combined, sweep.Options{
		Workers:    opts.Workers,
		Top:        opts.Top,
		Objective:  opts.Objective.inner(),
		OnProgress: opts.Progress,
		RunFn: func(ctx context.Context, idx int, ipl mpisim.Placement) (sweep.Metrics, error) {
			pl := publicPlacement(ipl)
			p := idx / len(points)
			met, err := m.evaluate(ctx, slot{key: placementKey(bases[p], pl)}, job, pl, &envs[p])
			if err != nil {
				return sweep.Metrics{}, err
			}
			return sweep.Metrics{Cycles: met.Cycles, Seconds: met.Seconds, ImbalancePct: met.ImbalancePct}, nil
		},
	})
	if err != nil {
		return nil, ctxErrOf(ctx, err)
	}
	if res.Failed > 0 {
		// Fail loudly whatever the Top truncation kept: a failed run
		// means the budget or space is wrong for this job, and a
		// ranking that silently omits configurations is worse than no
		// ranking.
		return nil, fmt.Errorf("smtbalance: %d of %d sweep configurations failed: %w",
			res.Failed, res.Evaluated, res.FirstErr)
	}
	out := &SweepResult{
		Evaluated: res.Evaluated,
		Screened:  screened * len(pols),
		Workers:   sweep.PoolSize(res.Evaluated, opts.Workers),
	}
	for _, rr := range res.Ranked {
		entry := SweepEntry{
			Placement:    publicPlacement(rr.Point.Placement()),
			Policy:       PolicyID(pols[rr.Index/len(points)]),
			Cycles:       rr.Metrics.Cycles,
			Seconds:      rr.Metrics.Seconds,
			ImbalancePct: rr.Metrics.ImbalancePct,
			Score:        rr.Score,
		}
		out.Entries = append(out.Entries, entry)
	}
	return out, nil
}

// publicPlacement converts a simulator placement to the public form.
func publicPlacement(ipl mpisim.Placement) Placement {
	pl := Placement{CPU: ipl.CPU, Priority: make([]Priority, len(ipl.Prio))}
	for i, p := range ipl.Prio {
		pl.Priority[i] = Priority(p)
	}
	return pl
}

// Sweep evaluates every configuration of the space under the job and
// streams the ranking as an iterator of (entry, error) pairs, best
// configuration first.  The space is evaluated across the worker pool on
// the first pull; opts.Progress (if set) observes the evaluation as it
// runs with (evaluated, total) counts.  Scores are normalized against
// the sweep-wide fastest run, so entries necessarily stream only after
// evaluation completes — but the iterator may be abandoned at any point
// (break), and cancelling ctx aborts the evaluation promptly, yielding
// exactly one (SweepEntry{}, ctx.Err()) pair.
func (m *Machine) Sweep(ctx context.Context, job Job, space Space, opts *SweepOptions) iter.Seq2[SweepEntry, error] {
	return func(yield func(SweepEntry, error) bool) {
		res, err := m.sweepAll(ctx, job, space, opts)
		if err != nil {
			yield(SweepEntry{}, err)
			return
		}
		for _, e := range res.Entries {
			if !yield(e, nil) {
				return
			}
		}
	}
}

// SweepAll is Sweep collected into a SweepResult.
func (m *Machine) SweepAll(ctx context.Context, job Job, space Space, opts *SweepOptions) (*SweepResult, error) {
	return m.sweepAll(ctx, job, space, opts)
}

// Optimize searches the OS-settable placement × priority space of this
// machine for the configuration optimizing the objective and returns it
// with its full Result — the automated version of the by-hand search
// behind the paper's Tables IV-VI.  The winner's re-run (for the trace
// the sweep does not keep) executes under the machine's own options, and
// is served from the result cache when the configuration was run before.
// An optional single SweepOptions argument tunes the search (Workers,
// Progress, and Screen for the two-level coarse → fine search); its Top
// and Objective are overridden.
func (m *Machine) Optimize(ctx context.Context, job Job, objective Objective, opts ...*SweepOptions) (Placement, *Result, error) {
	if len(opts) > 1 {
		return Placement{}, nil, fmt.Errorf("smtbalance: Optimize takes at most one SweepOptions, got %d", len(opts))
	}
	var so SweepOptions
	if len(opts) == 1 && opts[0] != nil {
		so = *opts[0]
	}
	so.Top = 1
	so.Objective = objective
	sw, err := m.sweepAll(ctx, job, OSSettableSpace(), &so)
	if err != nil {
		return Placement{}, nil, err
	}
	best, err := sw.Best()
	if err != nil {
		return Placement{}, nil, err
	}
	res, err := m.Run(ctx, job, best.Placement)
	if err != nil {
		return Placement{}, nil, err
	}
	return best.Placement, res, nil
}

// NewScenarioSession generates the scenario's job for this machine's
// topology and opens a Session on it — the one-liner connecting the
// scenario generator to the paper's iterative profile → re-place →
// retune loop:
//
//	sc, _ := smtbalance.ParseScenario("ramp,skew=3")
//	s, _ := m.NewScenarioSession(sc)
//	res, _ := s.Balance(ctx, &smtbalance.FeedbackPolicy{})
func (m *Machine) NewScenarioSession(sc Scenario) (*Session, error) {
	if sc == nil {
		return nil, fmt.Errorf("smtbalance: nil scenario")
	}
	job, err := sc.Job(m.opts.Topology)
	if err != nil {
		return nil, err
	}
	return m.NewSession(job), nil
}

// Session binds one job to a Machine for the paper's iterative workflow:
// profile a placement, look at the result, derive a better placement,
// run again — Tables IV-VI were found exactly this way, by hand.  The
// session remembers the last completed run so SuggestFromLast can turn
// the observed per-rank compute shares into the next placement to try.
// A Session is safe for concurrent use, though the "last result" is then
// whichever run finished most recently.
type Session struct {
	m   *Machine //mtlint:unguarded set at construction, read-only afterwards
	job Job      //mtlint:unguarded set at construction, read-only afterwards

	mu   sync.Mutex
	last *Result //mtlint:guardedby mu
}

// NewSession opens a session for the job on this machine.
func (m *Machine) NewSession(job Job) *Session { return &Session{m: m, job: job} }

// Machine returns the session's machine.
func (s *Session) Machine() *Machine { return s.m }

// Job returns the session's job.
func (s *Session) Job() Job { return s.job }

// Run executes the session's job under the placement and records the
// result as the session's last run.
func (s *Session) Run(ctx context.Context, pl Placement) (*Result, error) {
	res, err := s.m.Run(ctx, s.job, pl)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.last = res
	s.mu.Unlock()
	return res, nil
}

// Last returns the session's most recent successful Run or Optimize
// result, or nil if none completed yet.
func (s *Session) Last() *Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}

// Sweep streams the ranking of the space for the session's job.
func (s *Session) Sweep(ctx context.Context, space Space, opts *SweepOptions) iter.Seq2[SweepEntry, error] {
	return s.m.Sweep(ctx, s.job, space, opts)
}

// Optimize searches the OS-settable space for the session's job and
// records the winner's result as the session's last run.
func (s *Session) Optimize(ctx context.Context, objective Objective) (Placement, *Result, error) {
	pl, res, err := s.m.Optimize(ctx, s.job, objective)
	if err != nil {
		return Placement{}, nil, err
	}
	s.mu.Lock()
	s.last = res
	s.mu.Unlock()
	return pl, res, nil
}

// Balance runs the paper's iterative profile → re-place → retune loop
// in one call, with an online balancing policy closing the loop: if the
// session has no completed run yet, the job is first profiled pinned in
// order at medium priority (the paper's Case A); the observed per-rank
// compute shares then become the static placement SuggestFromLast
// derives; and the job runs under that placement with pol attached,
// retuning priorities online as the load shifts.  The run is recorded as
// the session's last result, so calling Balance again iterates the
// loop on fresher profiles.  A nil policy runs the static plan alone.
func (s *Session) Balance(ctx context.Context, pol Policy) (*Result, error) {
	if s.Last() == nil {
		pl, err := s.m.opts.Topology.PinInOrder(len(s.job.Ranks))
		if err != nil {
			return nil, err
		}
		if _, err := s.Run(ctx, pl); err != nil {
			return nil, err
		}
	}
	pl, err := s.SuggestFromLast()
	if err != nil {
		return nil, err
	}
	res, err := s.m.RunPolicy(ctx, s.job, pl, pol)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.last = res
	s.mu.Unlock()
	return res, nil
}

// SuggestFromLast derives the next placement to try from the last run:
// each rank's share of time spent computing is the work estimate the
// paper's authors read off their profiles, and the topology's placement
// planner turns those estimates into a pairing and priority plan.  The
// session knows its job, so the plan is communication-aware
// (SuggestPlacementForJob): on multi-chip machines tightly coupled
// ranks are kept off the cross-chip fabric.  The estimates are scaled
// to observed compute cycles (share × run cycles) — a common factor
// that leaves the priority plan untouched but makes them comparable to
// the predictor's communication term.  It errors if no run has
// completed yet.
func (s *Session) SuggestFromLast() (Placement, error) {
	last := s.Last()
	if last == nil {
		return Placement{}, fmt.Errorf("smtbalance: session has no completed run to profile; call Run first")
	}
	works := make([]float64, len(last.Ranks))
	for i, r := range last.Ranks {
		works[i] = r.ComputePct / 100 * float64(last.Cycles)
	}
	return s.m.opts.Topology.SuggestPlacementForJob(s.job, works)
}
