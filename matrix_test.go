package smtbalance

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

// smallMatrixSpec is the suite's fast two-cell spec.
func smallMatrixSpec(t *testing.T) MatrixSpec {
	t.Helper()
	var spec MatrixSpec
	for _, s := range []string{"uniform,base=5000,iters=3", "step,base=5000,iters=3"} {
		sc, err := ParseScenario(s)
		if err != nil {
			t.Fatal(err)
		}
		spec.Scenarios = append(spec.Scenarios, sc)
	}
	spec.Policies = []Policy{StaticPolicy{}, &PaperDynamic{}}
	return spec
}

func TestEvalMatrixAll(t *testing.T) {
	mx := NewMatrix()
	res, err := mx.EvalAll(t.Context(), smallMatrixSpec(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cells != 2 {
		t.Errorf("Cells = %d, want 2", res.Cells)
	}
	if len(res.Entries) != 4 {
		t.Fatalf("entries = %d, want 4 (2 cells x 2 policies)", len(res.Entries))
	}
	for i, e := range res.Entries {
		if e.Cycles <= 0 || e.Seconds <= 0 {
			t.Errorf("entry %d has empty metrics: %+v", i, e)
		}
		if e.Topology != "1x2x2" {
			t.Errorf("entry %d topology = %q", i, e.Topology)
		}
		// The static control scores exactly 1 by construction.
		if e.Policy == "static" && e.Speedup != 1 {
			t.Errorf("static control speedup = %v, want exactly 1", e.Speedup)
		}
	}
	// Spec order: scenario-major, static control first within a cell.
	if res.Entries[0].Policy != "static" || res.Entries[1].Policy == "static" {
		t.Errorf("entry order not (static, dyn): %q, %q", res.Entries[0].Policy, res.Entries[1].Policy)
	}
	if res.Entries[0].Scenario != res.Entries[1].Scenario {
		t.Errorf("first cell split across scenarios: %q vs %q", res.Entries[0].Scenario, res.Entries[1].Scenario)
	}
}

// The matrix is worker-count deterministic: the acceptance criterion of
// the whole subsystem.
func TestEvalMatrixWorkerDeterminism(t *testing.T) {
	spec := smallMatrixSpec(t)
	serial, err := NewMatrix().EvalAll(t.Context(), spec, &MatrixOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := NewMatrix().EvalAll(t.Context(), spec, &MatrixOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Entries, pooled.Entries) {
		t.Errorf("matrix differs across worker counts:\nserial: %+v\npooled: %+v", serial.Entries, pooled.Entries)
	}
}

// The static control is added implicitly when the policy axis lacks it,
// and lands first in every cell.
func TestEvalMatrixAddsStaticControl(t *testing.T) {
	spec := smallMatrixSpec(t)
	spec.Scenarios = spec.Scenarios[:1]
	spec.Policies = []Policy{&FeedbackPolicy{}}
	res, err := NewMatrix().EvalAll(t.Context(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 2 {
		t.Fatalf("entries = %d, want 2 (implicit static + feedback)", len(res.Entries))
	}
	if res.Entries[0].Policy != "static" {
		t.Errorf("first entry = %q, want the implicit static control", res.Entries[0].Policy)
	}
}

// Repeating a spec replays every cell's runs from the engine machine's
// outcome store: no policy is bound again (so nothing is simulated)
// and the replay is byte-identical.
func TestMatrixCellCache(t *testing.T) {
	mx := NewMatrix()
	spec := smallMatrixSpec(t)
	var binds atomic.Int64
	spec.Policies = append(spec.Policies, bindCountingPolicy{binds: &binds})
	first, err := mx.EvalAll(t.Context(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := binds.Load(); got != int64(len(spec.Scenarios)) {
		t.Fatalf("first eval bound the policy %d times, want once per cell (%d)", got, len(spec.Scenarios))
	}
	second, err := mx.EvalAll(t.Context(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := binds.Load() - int64(len(spec.Scenarios)); got != 0 {
		t.Errorf("repeated eval bound the policy %d more times, want 0", got)
	}
	if !reflect.DeepEqual(first.Entries, second.Entries) {
		t.Error("cached replay differs from the original evaluation")
	}
	// A changed policy axis reuses the runs it shares with the old one:
	// only the new policy simulates.
	m, err := mx.machine(DefaultTopology())
	if err != nil {
		t.Fatal(err)
	}
	sims := func() int64 {
		st := m.CacheStats()
		return st.Misses - st.Coalesced - st.DiskHits
	}
	before := sims()
	spec.Policies = []Policy{StaticPolicy{}, &FeedbackPolicy{}}
	if _, err := mx.EvalAll(t.Context(), spec, nil); err != nil {
		t.Fatal(err)
	}
	if got := sims() - before; got != int64(len(spec.Scenarios)) {
		t.Errorf("changed policy axis simulated %d runs, want %d (the new policy's only)", got, len(spec.Scenarios))
	}
}

func TestEvalMatrixSpecValidation(t *testing.T) {
	ctx := context.Background()
	sc, err := ParseScenario("uniform,base=5000,iters=2")
	if err != nil {
		t.Fatal(err)
	}
	for name, spec := range map[string]MatrixSpec{
		"no scenarios":     {Policies: []Policy{StaticPolicy{}}},
		"no policies":      {Scenarios: []Scenario{sc}},
		"nil scenario":     {Scenarios: []Scenario{nil}, Policies: []Policy{StaticPolicy{}}},
		"nil policy":       {Scenarios: []Scenario{sc}, Policies: []Policy{nil}},
		"duplicate policy": {Scenarios: []Scenario{sc}, Policies: []Policy{&PaperDynamic{}, &PaperDynamic{}}},
		"bad topology":     {Scenarios: []Scenario{sc}, Policies: []Policy{StaticPolicy{}}, Topologies: []Topology{{Chips: 1}}},
	} {
		if _, err := NewMatrix().EvalAll(ctx, spec, nil); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestEvalMatrixCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := NewMatrix().EvalAll(ctx, smallMatrixSpec(t), nil)
	if err == nil {
		t.Fatal("cancelled matrix evaluation succeeded")
	}
}

// The multi-topology axis works and labels entries per topology.
func TestEvalMatrixTopologyAxis(t *testing.T) {
	spec := smallMatrixSpec(t)
	spec.Scenarios = spec.Scenarios[:1]
	spec.Topologies = []Topology{DefaultTopology(), {Chips: 2, CoresPerChip: 2, SMTWays: 2}}
	done := 0
	res, err := NewMatrix().EvalAll(t.Context(), spec, &MatrixOptions{Progress: func(d, total int) {
		done = d
		if total != 2 {
			t.Errorf("Progress total = %d, want 2", total)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if done != 2 {
		t.Errorf("Progress saw %d cells, want 2", done)
	}
	topos := map[string]int{}
	for _, e := range res.Entries {
		topos[e.Topology]++
	}
	if topos["1x2x2"] != 2 || topos["2x2x2"] != 2 {
		t.Errorf("entries per topology = %v, want 2 each", topos)
	}
}

func TestMatrixWriteCSV(t *testing.T) {
	res, err := NewMatrix().EvalAll(t.Context(), smallMatrixSpec(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if lines[0] != "topology,scenario,policy,cycles,seconds,imbalance_pct,speedup_vs_static" {
		t.Errorf("CSV header = %q", lines[0])
	}
	if len(lines) != 1+len(res.Entries) {
		t.Errorf("CSV has %d lines, want %d", len(lines), 1+len(res.Entries))
	}
	// Quoted identity columns: scenario IDs contain commas and must not
	// shift the numeric columns.
	if !strings.Contains(lines[1], `"uniform(`) {
		t.Errorf("scenario column not quoted: %q", lines[1])
	}
}

// The streaming iterator may be abandoned mid-flight.
func TestEvalMatrixStreamBreak(t *testing.T) {
	got := 0
	for _, err := range NewMatrix().Eval(t.Context(), smallMatrixSpec(t), nil) {
		if err != nil {
			t.Fatal(err)
		}
		got++
		break
	}
	if got != 1 {
		t.Errorf("broke after %d entries, want 1", got)
	}
}
