package smtbalance

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

// iterativeJob builds a compute+barrier job with the given per-rank
// loads repeated for iters iterations — enough barriers for online
// policies to observe and react.
func iterativeJob(name string, loads []int64, iters int) Job {
	job := Job{Name: name}
	for _, n := range loads {
		var prog []Phase
		for i := 0; i < iters; i++ {
			prog = append(prog, Compute("fpu", n), Barrier())
		}
		job.Ranks = append(job.Ranks, prog)
	}
	return job
}

// scalingJob is the 2-chip BT-MZ-style scaling job (the Table V load
// distribution replicated per chip), paired heavy-with-light per core so
// priorities have leverage.
func scalingJob(iters int) Job {
	return iterativeJob("btmz-scale-2chip",
		[]int64{40000, 7200, 26800, 9600, 40000, 7200, 26800, 9600}, iters)
}

func TestPolicyRegistry(t *testing.T) {
	names := Policies()
	for _, want := range []string{"static", "dyn", "hier", "feedback"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("built-in policy %q not registered (have %v)", want, names)
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Policies() not sorted: %v", names)
		}
	}

	if err := RegisterPolicy("dyn", func(map[string]string) (Policy, error) { return StaticPolicy{}, nil }); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := RegisterPolicy("bad,name", func(map[string]string) (Policy, error) { return StaticPolicy{}, nil }); err == nil {
		t.Error("delimiter in policy name accepted")
	}
	if err := RegisterPolicy("nilfactory", nil); err == nil {
		t.Error("nil factory accepted")
	}
}

func TestParsePolicy(t *testing.T) {
	pol, err := ParsePolicy("dyn, maxdiff=2 ,threshold=0.1")
	if err != nil {
		t.Fatal(err)
	}
	dyn, ok := pol.(*PaperDynamic)
	if !ok {
		t.Fatalf("ParsePolicy(dyn) = %T", pol)
	}
	if dyn.MaxDiff != 2 || dyn.Threshold != 0.1 {
		t.Errorf("parsed params = %+v", dyn)
	}
	if got := PolicyID(pol); got != "dyn(hysteresis=2,maxdiff=2,threshold=0.1)" {
		t.Errorf("PolicyID = %q", got)
	}

	if pol, err = ParsePolicy("static"); err != nil {
		t.Fatal(err)
	}
	if _, ok := pol.(StaticPolicy); !ok {
		t.Errorf("ParsePolicy(static) = %T", pol)
	}
	if got := PolicyID(pol); got != "static" {
		t.Errorf("PolicyID(static) = %q", got)
	}
	if PolicyID(nil) != "" {
		t.Error("PolicyID(nil) not empty")
	}

	for _, bad := range []string{
		"", "nosuchpolicy", "dyn,maxdiff", "dyn,maxdiff=", "dyn,maxdiff=abc",
		"dyn,bogus=1", "static,stray=2", "feedback,gain=x",
		"dyn,maxdiff=1,maxdiff=2",
		// Explicit out-of-range values must fail loudly, never silently
		// clamp to a different policy than requested.
		"dyn,maxdiff=9", "dyn,maxdiff=0", "dyn,maxdiff=-1",
		"dyn,threshold=0", "dyn,threshold=2", "dyn,hysteresis=0",
		"hier,maxdiff=5", "feedback,gain=-1", "feedback,deadband=1.5",
		"feedback,threshold=0.1", // feedback has no threshold knob
	} {
		if _, err := ParsePolicy(bad); err == nil {
			t.Errorf("ParsePolicy(%q) accepted", bad)
		}
	}
}

// Regression: an unknown policy name's error must list the registered
// names — a typo like "dyn2" should teach what exists, not stonewall.
// ParseScenario mirrors this behavior (see scenario_test.go).
func TestParsePolicyUnknownNameListsRegistered(t *testing.T) {
	_, err := ParsePolicy("dyn2")
	if err == nil {
		t.Fatal("ParsePolicy(dyn2) accepted")
	}
	if !strings.Contains(err.Error(), "unknown policy") {
		t.Errorf("error %q does not say the name is unknown", err)
	}
	for _, name := range []string{"static", "dyn", "hier", "feedback"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("ParsePolicy(dyn2) error %q does not mention registered policy %q", err, name)
		}
	}
}

// TestPaperDynamicHighCorePlacement: pairs pinned to high core indices
// (here core 2, the second chip's first core) must be managed too — the
// pair discovery walks cores up to the highest one used, not the rank
// count.
func TestPaperDynamicHighCorePlacement(t *testing.T) {
	job := iterativeJob("highcore", []int64{8000, 32000}, 10)
	pl := Placement{CPU: []int{4, 5}, Priority: []Priority{PriorityMedium, PriorityMedium}}
	topo := Topology{Chips: 2, CoresPerChip: 2, SMTWays: 2}
	dyn, err := runWith(job, pl, &Options{NoOSNoise: true, Topology: topo, Policy: &PaperDynamic{MaxDiff: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if dyn.BalancerMoves == 0 {
		t.Error("PaperDynamic never moved for a pair on core 2")
	}
	static, err := runWith(job, pl, &Options{NoOSNoise: true, Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	if dyn.Cycles >= static.Cycles {
		t.Errorf("dynamic balancing on core 2 did not help: %d >= %d", dyn.Cycles, static.Cycles)
	}
}

// TestVanillaKernelDisarmsPolicies checks the procfs plumbing: without
// the paper's kernel patch no policy can act, so a policy run equals the
// static run exactly.
func TestVanillaKernelDisarmsPolicies(t *testing.T) {
	job := iterativeJob("vanilla", []int64{8000, 32000}, 8)
	pl := PinInOrder(2)
	base, err := runWith(job, pl, &Options{VanillaKernel: true, NoOSNoise: true})
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := runWith(job, pl, &Options{VanillaKernel: true, NoOSNoise: true, Policy: &PaperDynamic{MaxDiff: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if dyn.BalancerMoves != 0 {
		t.Errorf("policy moved %d times on a vanilla kernel", dyn.BalancerMoves)
	}
	if dyn.Cycles != base.Cycles {
		t.Errorf("inert policy changed the run: %d vs %d cycles", dyn.Cycles, base.Cycles)
	}
}

// TestPolicyCacheKeyIdentity audits the result-cache canonical key
// against the policy axis: distinct policies (or parameters) must never
// collide, the deprecated knobs must share entries with their policy
// spelling, and every other behavior-affecting Options field must keep
// splitting the key.
func TestPolicyCacheKeyIdentity(t *testing.T) {
	job := iterativeJob("key", []int64{1000, 2000}, 1)
	base := Options{}
	key := func(opts Options) [32]byte { return envJobKey(opts, job) }

	k0 := key(base)
	seen := map[[32]byte]string{k0: "default"}
	for _, v := range []struct {
		label string
		opts  Options
	}{
		{"vanilla", Options{VanillaKernel: true}},
		{"no-noise", Options{NoOSNoise: true}},
		{"cold", Options{ColdCaches: true}},
		{"max-cycles", Options{MaxCycles: 12345}},
		{"topology", Options{Topology: Topology{Chips: 2, CoresPerChip: 2, SMTWays: 2}}},
		{"static", Options{Policy: StaticPolicy{}}},
		{"dyn", Options{Policy: &PaperDynamic{}}},
		{"dyn-maxdiff2", Options{Policy: &PaperDynamic{MaxDiff: 2}}},
		{"hier", Options{Policy: &HierarchicalPolicy{}}},
		{"feedback", Options{Policy: &FeedbackPolicy{}}},
		{"feedback-gain8", Options{Policy: &FeedbackPolicy{Gain: 8}}},
	} {
		k := key(v.opts)
		if prev, dup := seen[k]; dup {
			t.Errorf("cache key collision: %q and %q hash identically", v.label, prev)
		}
		seen[k] = v.label
	}

	// The key hashes policy identity structurally, so two custom
	// policies whose Name/Params render to the same PolicyID string
	// (through the grammar's delimiters) still never collide.
	a := fakePolicy{name: "p", params: map[string]string{"a": "1,b=2"}}
	b := fakePolicy{name: "p", params: map[string]string{"a": "1", "b": "2"}}
	if PolicyID(a) != PolicyID(b) {
		t.Fatalf("test premise broken: rendered IDs differ (%q vs %q)", PolicyID(a), PolicyID(b))
	}
	if key(Options{Policy: a}) == key(Options{Policy: b}) {
		t.Error("distinct policies with colliding rendered IDs share a cache key")
	}
}

// fakePolicy is a bindable policy with arbitrary identity, for the
// cache-key collision tests.
type fakePolicy struct {
	name   string
	params map[string]string
}

func (f fakePolicy) Name() string                            { return f.name }
func (f fakePolicy) Params() map[string]string               { return f.params }
func (f fakePolicy) Observe(IterationStats) []PriorityAction { return nil }
func (f fakePolicy) Bind(Topology, Placement) Policy         { return f }

// TestPolicySweepRanksPolicies is the acceptance scenario: rank the four
// built-ins on the 2-chip scaling job and require a non-paper policy to
// beat StaticPolicy on imbalance, deterministically.
func TestPolicySweepRanksPolicies(t *testing.T) {
	job := scalingJob(10)
	m, err := NewMachine(&Options{Topology: Topology{Chips: 2, CoresPerChip: 2, SMTWays: 2}})
	if err != nil {
		t.Fatal(err)
	}
	space := Space{
		FixPairing: true,
		Priorities: []Priority{PriorityMedium},
		Policies: []Policy{
			StaticPolicy{}, &PaperDynamic{}, &HierarchicalPolicy{}, &FeedbackPolicy{},
		},
	}
	res, err := m.SweepAll(context.Background(), job, space, &SweepOptions{Objective: MinimizeImbalance()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 4 {
		t.Fatalf("ranked %d entries, want 4 (one per policy)", len(res.Entries))
	}
	if res.Evaluated != 4 {
		t.Errorf("Evaluated = %d, want 4", res.Evaluated)
	}
	byPolicy := map[string]SweepEntry{}
	for _, e := range res.Entries {
		if e.Policy == "" {
			t.Fatalf("entry missing policy identity: %+v", e)
		}
		name, _, _ := strings.Cut(e.Policy, "(")
		byPolicy[name] = e
	}
	for _, want := range []string{"static", "dyn", "hier", "feedback"} {
		if _, ok := byPolicy[want]; !ok {
			t.Fatalf("policy %q missing from ranking (have %v)", want, res.Entries)
		}
	}
	static := byPolicy["static"]
	if byPolicy["hier"].ImbalancePct >= static.ImbalancePct &&
		byPolicy["feedback"].ImbalancePct >= static.ImbalancePct {
		t.Errorf("no non-paper policy beat static on imbalance: hier %.2f, feedback %.2f, static %.2f",
			byPolicy["hier"].ImbalancePct, byPolicy["feedback"].ImbalancePct, static.ImbalancePct)
	}
	if best := res.Entries[0]; strings.HasPrefix(best.Policy, "static") {
		t.Errorf("static won the imbalance ranking: %+v", best)
	}

	// Determinism: a second sweep (served from the metrics cache) must
	// reproduce the ranking exactly.
	again, err := m.SweepAll(context.Background(), job, space, &SweepOptions{Objective: MinimizeImbalance()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Entries, again.Entries) {
		t.Error("policy sweep not deterministic across cache hits")
	}
	if st := m.CacheStats(); st.Hits == 0 {
		t.Error("second policy sweep did not hit the metrics cache")
	}
}

// TestPolicySweepRejectsBadPolicies covers the sweep-side policy
// validation: nil entries and non-bindable policies fail up front.
func TestPolicySweepRejectsBadPolicies(t *testing.T) {
	m, err := NewMachine(nil)
	if err != nil {
		t.Fatal(err)
	}
	job := iterativeJob("bad", []int64{1000, 2000}, 1)
	ctx := context.Background()
	if _, err := m.SweepAll(ctx, job, Space{Policies: []Policy{nil}}, nil); err == nil || !strings.Contains(err.Error(), "nil") {
		t.Errorf("nil policy in sweep: err = %v", err)
	}
	if _, err := m.SweepAll(ctx, job, Space{Policies: []Policy{unboundPolicy{}}}, nil); err == nil || !strings.Contains(err.Error(), "PolicyBinder") {
		t.Errorf("non-bindable policy in sweep: err = %v", err)
	}
	// A machine-level Policy may not be combined with a policy axis
	// (ambiguous intent).
	mp, err := NewMachine(&Options{Policy: &PaperDynamic{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mp.SweepAll(ctx, job, Space{Policies: []Policy{StaticPolicy{}}}, nil); err == nil || !strings.Contains(err.Error(), "Space.Policies") {
		t.Errorf("machine policy plus Space.Policies: err = %v", err)
	}
}

// TestPolicyMachineSweepAndOptimize: a machine configured with a
// bindable Options.Policy sweeps and optimizes under that policy — the
// README's recommended configuration must support the whole workflow.
func TestPolicyMachineSweepAndOptimize(t *testing.T) {
	// Two ranks keep Optimize's OS-settable space small (25 configs).
	job := iterativeJob("polmach", []int64{12000, 3000}, 6)
	m, err := NewMachine(&Options{Policy: &FeedbackPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := m.SweepAll(ctx, job, Space{FixPairing: true, Priorities: []Priority{PriorityMedium}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 1 || !strings.HasPrefix(res.Entries[0].Policy, "feedback") {
		t.Fatalf("policy-machine sweep entries = %+v", res.Entries)
	}
	pl, best, err := m.Optimize(ctx, job, MinimizeCycles())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(best.Policy, "feedback") {
		t.Errorf("Optimize winner ran policy %q, want the machine's feedback policy", best.Policy)
	}
	// The winner's re-run must agree with its swept metrics.
	rerun, err := m.Run(ctx, job, pl)
	if err != nil {
		t.Fatal(err)
	}
	if rerun.Cycles != best.Cycles {
		t.Errorf("Optimize result (%d cycles) does not match its placement's run (%d)", best.Cycles, rerun.Cycles)
	}
}

// unboundPolicy implements Policy but not PolicyBinder.
type unboundPolicy struct{}

func (unboundPolicy) Name() string                            { return "unbound" }
func (unboundPolicy) Params() map[string]string               { return nil }
func (unboundPolicy) Observe(IterationStats) []PriorityAction { return nil }

// TestUnboundPolicyRunsUncached: a bare Policy still works with
// Machine.Run but is never memoized (it may carry cross-run state).
func TestUnboundPolicyRunsUncached(t *testing.T) {
	m, err := NewMachine(&Options{Policy: unboundPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	job := iterativeJob("unbound", []int64{1000, 2000}, 2)
	ctx := context.Background()
	if _, err := m.Run(ctx, job, PinInOrder(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(ctx, job, PinInOrder(2)); err != nil {
		t.Fatal(err)
	}
	if st := m.CacheStats(); st.Hits != 0 || st.Results != 0 {
		t.Errorf("unbound policy runs were cached: %+v", st)
	}
}

// TestSessionBalance exercises the one-call profile → re-place → online
// retune loop.
func TestSessionBalance(t *testing.T) {
	job := iterativeJob("balance", []int64{40000, 7200, 26800, 9600}, 10)
	m, err := NewMachine(&Options{NoOSNoise: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Reference: naive pin-in-order, no balancing at all.
	naive, err := m.Run(ctx, job, PinInOrder(4))
	if err != nil {
		t.Fatal(err)
	}

	s := m.NewSession(job)
	res, err := s.Balance(ctx, &FeedbackPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy == "" || !strings.HasPrefix(res.Policy, "feedback") {
		t.Errorf("Balance ran policy %q, want feedback", res.Policy)
	}
	if s.Last() != res {
		t.Error("Balance did not record the session's last result")
	}
	if res.Cycles >= naive.Cycles {
		t.Errorf("balanced run (%d cycles) not better than naive (%d)", res.Cycles, naive.Cycles)
	}
	if res.ImbalancePct >= naive.ImbalancePct {
		t.Errorf("balanced imbalance %.2f%% not better than naive %.2f%%", res.ImbalancePct, naive.ImbalancePct)
	}

	// A nil policy runs the suggested static plan alone.
	static, err := m.NewSession(job).Balance(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if static.Policy != "" {
		t.Errorf("nil-policy Balance reported policy %q", static.Policy)
	}
}

// TestPolicySweepWorkerDeterminism: the policy × placement × priority
// ranking must not depend on the worker-pool size.
func TestPolicySweepWorkerDeterminism(t *testing.T) {
	job := iterativeJob("det", []int64{12000, 3000, 9000, 4500}, 6)
	space := Space{
		FixPairing: true,
		Priorities: []Priority{PriorityLow, PriorityMedium},
		Policies:   []Policy{StaticPolicy{}, &FeedbackPolicy{}},
	}
	var rankings [][]SweepEntry
	for _, workers := range []int{1, 4} {
		m, err := NewMachine(nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.SweepAll(context.Background(), job, space, &SweepOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.Evaluated != 2*16 {
			t.Fatalf("evaluated %d configurations, want 32", res.Evaluated)
		}
		rankings = append(rankings, res.Entries)
	}
	if !reflect.DeepEqual(rankings[0], rankings[1]) {
		t.Error("policy sweep ranking depends on the worker count")
	}
}
