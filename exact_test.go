package smtbalance

import (
	"bytes"
	"context"
	"reflect"
	"testing"
)

// The phase-skip engine's contract is byte-identity: Options.Exact must
// never change a result, only how it is computed.  The suite sweeps
// every registered policy (plus the policy-less run, the only case
// where the engine actually engages — policies observe iterations, so
// their runs are implicitly exact) against one scenario per built-in
// shape.

// runExactPair executes the same run with and without Options.Exact,
// bypassing the result cache (which deliberately keys both spellings
// identically — see envJobKey).
func runExactPair(t *testing.T, job Job, pl Placement, opts Options, pol Policy) (*Result, *Result) {
	t.Helper()
	opts.Policy = pol
	exactOpts := opts
	exactOpts.Exact = true
	exact, err := runSim(context.Background(), job, pl, &exactOpts)
	if err != nil {
		t.Fatalf("exact run failed: %v", err)
	}
	fast, err := runSim(context.Background(), job, pl, &opts)
	if err != nil {
		t.Fatalf("fast run failed: %v", err)
	}
	return exact, fast
}

// mustEqualResults asserts two results are byte-identical, including
// the serialized trace.
func mustEqualResults(t *testing.T, exact, fast *Result) {
	t.Helper()
	var be, bf bytes.Buffer
	if err := exact.WriteTraceCSV(&be); err != nil {
		t.Fatal(err)
	}
	if err := fast.WriteTraceCSV(&bf); err != nil {
		t.Fatal(err)
	}
	et, ft := *exact, *fast
	et.tr, ft.tr = nil, nil
	// SkippedCycles reports how the result was computed, not what it is.
	et.SkippedCycles, ft.SkippedCycles = 0, 0
	if !reflect.DeepEqual(et, ft) {
		t.Errorf("results diverge:\nexact: %+v\nfast:  %+v", et, ft)
	}
	if !bytes.Equal(be.Bytes(), bf.Bytes()) {
		t.Errorf("traces diverge (%d vs %d bytes)", be.Len(), bf.Len())
	}
}

func TestExactIdentityAcrossPoliciesAndScenarios(t *testing.T) {
	topo := DefaultTopology()
	policies := map[string]Policy{"none": nil}
	for name, pol := range diffPolicies(t) {
		policies[name] = pol
	}
	for polName, pol := range policies {
		for _, spec := range diffSeedSpecs() {
			t.Run(polName+"/"+shortScenarioName(spec), func(t *testing.T) {
				sc, err := ParseScenario(spec)
				if err != nil {
					t.Fatal(err)
				}
				job, err := sc.Job(topo)
				if err != nil {
					t.Fatal(err)
				}
				opts := Options{NoOSNoise: true}
				exact, fast := runExactPair(t, job, PinInOrder(len(job.Ranks)), opts, pol)
				mustEqualResults(t, exact, fast)
			})
		}
	}
}

// TestExactIdentityWithOSNoise covers the noisy kernel: timer ticks make
// recurrences rare, but any skip taken must still be exact.
func TestExactIdentityWithOSNoise(t *testing.T) {
	sc, err := ParseScenario("uniform,base=20000,iters=6")
	if err != nil {
		t.Fatal(err)
	}
	job, err := sc.Job(DefaultTopology())
	if err != nil {
		t.Fatal(err)
	}
	exact, fast := runExactPair(t, job, PinInOrder(len(job.Ranks)), Options{}, nil)
	mustEqualResults(t, exact, fast)
}
