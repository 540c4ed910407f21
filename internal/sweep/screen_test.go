package sweep

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/mpisim"
	"repro/internal/power5"
	"repro/internal/workload"
)

// screenJob builds a 4-rank iterative job with unequal compute and a
// ring exchange, so both the decode-share and the comm terms of the
// predictor discriminate between points.
func screenJob() *mpisim.Job {
	works := []int64{40000, 10000, 30000, 8000}
	job := &mpisim.Job{Name: "screen-test"}
	for r, n := range works {
		var prog mpisim.Program
		for it := 0; it < 2; it++ {
			prog = append(prog,
				mpisim.Compute(workload.Load{Kind: workload.FPU, N: n}),
				mpisim.Exchange(4096, (r+1)%4, (r+3)%4),
				mpisim.Barrier(),
			)
		}
		job.Ranks = append(job.Ranks, prog)
	}
	return job
}

func userPoints(t *testing.T, topo power5.Topology) []Point {
	t.Helper()
	points, err := Enumerate(4, Space{Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	return points
}

func TestRankLoads(t *testing.T) {
	loads := RankLoads(screenJob())
	if len(loads) != 4 {
		t.Fatalf("got %d loads", len(loads))
	}
	if loads[0].Compute != 80000 || loads[3].Compute != 16000 {
		t.Fatalf("compute totals wrong: %+v", loads)
	}
	if len(loads[1].Exchanges) != 2 || loads[1].Exchanges[0].Bytes != 4096 {
		t.Fatalf("exchange summary wrong: %+v", loads[1])
	}
	// Spin loads must not contribute a (meaningless) instruction budget.
	spin := &mpisim.Job{Ranks: []mpisim.Program{{mpisim.Compute(workload.Load{Kind: workload.Spin, N: 1 << 40})}}}
	if got := RankLoads(spin)[0].Compute; got != 0 {
		t.Fatalf("spin load contributed %v compute", got)
	}
}

func TestScreenShortlistShape(t *testing.T) {
	topo := power5.DefaultTopology()
	points := userPoints(t, topo)
	short := Screen(screenJob(), points, topo, 8, GuardBand(len(points)), core.DefaultModel())
	if len(short) < 8 || len(short) >= len(points) {
		t.Fatalf("shortlist size %d out of range (space %d)", len(short), len(points))
	}
	seen := map[int]bool{}
	for i, idx := range short {
		if idx < 0 || idx >= len(points) {
			t.Fatalf("index %d out of range", idx)
		}
		if seen[idx] {
			t.Fatalf("duplicate index %d", idx)
		}
		seen[idx] = true
		if i > 0 && short[i-1] >= idx {
			t.Fatalf("shortlist not ascending at %d: %v", i, short[:i+1])
		}
	}
}

func TestScreenDegeneratesToExhaustive(t *testing.T) {
	topo := power5.DefaultTopology()
	points := userPoints(t, topo)
	for _, tc := range []struct{ keep, guard int }{{0, 10}, {-3, 0}, {len(points), 0}, {10, len(points)}} {
		short := Screen(screenJob(), points, topo, tc.keep, tc.guard, core.DefaultModel())
		if len(short) != len(points) {
			t.Fatalf("keep=%d guard=%d: got %d indices, want all %d", tc.keep, tc.guard, len(short), len(points))
		}
	}
}

// TestScreenGuardMonotone is the guard-band property: a smaller guard
// yields a shortlist that is a subset of any larger guard's, so
// shrinking the band can only drop coverage — never reorder or corrupt
// what remains.
func TestScreenGuardMonotone(t *testing.T) {
	topo := power5.Topology{Chips: 2, CoresPerChip: 2, SMTWays: 2}
	points := userPoints(t, topo)
	job := screenJob()
	m := core.DefaultModel()
	var prev map[int]bool
	for guard := 0; guard <= len(points); guard += 16 {
		short := Screen(job, points, topo, 4, guard, m)
		cur := make(map[int]bool, len(short))
		for _, idx := range short {
			cur[idx] = true
		}
		if prev != nil {
			for idx := range prev {
				if !cur[idx] {
					t.Fatalf("guard %d lost index %d present at guard %d", guard, idx, guard-16)
				}
			}
		}
		prev = cur
	}
}

// TestScreenedRankingIsRestriction checks the fine-level contract: a
// sweep over the shortlist ranks exactly like the exhaustive sweep with
// the unscreened points removed — same relative order, same metrics —
// because screening only selects which points run.
func TestScreenedRankingIsRestriction(t *testing.T) {
	topo := power5.Topology{Chips: 2, CoresPerChip: 2, SMTWays: 2}
	points := userPoints(t, topo)
	job := screenJob()

	// A synthetic, deterministic evaluator keeps the test fast and makes
	// the exhaustive/screened comparison exact.
	fakeRun := func(_ context.Context, _ int, pl mpisim.Placement) (Metrics, error) {
		var h int64 = 1469598103934665603
		for _, c := range pl.CPU {
			h = (h ^ int64(c)) * 1099511628211
		}
		for _, p := range pl.Prio {
			h = (h ^ int64(p)) * 1099511628211
		}
		if h < 0 {
			h = -h
		}
		return Metrics{Cycles: 10000 + h%100000, Seconds: 1, ImbalancePct: float64(h % 97)}, nil
	}

	full, err := SweepCtx(context.Background(), points, Options{RunFn: fakeRun})
	if err != nil {
		t.Fatal(err)
	}
	short := Screen(job, points, topo, 6, GuardBand(len(points)), core.DefaultModel())
	if len(short) >= len(points) {
		t.Fatalf("screening kept the whole %d-point space", len(points))
	}
	kept := make([]Point, len(short))
	inShort := map[string]bool{}
	for i, idx := range short {
		kept[i] = points[idx]
		inShort[points[idx].String()] = true
	}
	screened, err := SweepCtx(context.Background(), kept, Options{RunFn: fakeRun})
	if err != nil {
		t.Fatal(err)
	}

	var restricted []RunResult
	for _, rr := range full.Ranked {
		if inShort[rr.Point.String()] {
			restricted = append(restricted, rr)
		}
	}
	if len(restricted) != len(screened.Ranked) {
		t.Fatalf("restriction has %d entries, screened ranking %d", len(restricted), len(screened.Ranked))
	}
	for i := range restricted {
		a, b := restricted[i], screened.Ranked[i]
		if a.Point.String() != b.Point.String() || a.Metrics != b.Metrics {
			t.Fatalf("rank %d differs: exhaustive-restricted %v (%+v) vs screened %v (%+v)",
				i, a.Point, a.Metrics, b.Point, b.Metrics)
		}
	}
}

// TestScreenKeepsAnalyticalWinnerFirst sanity-checks that the shortlist
// contains the best-predicted point and that predictions drove the
// selection (a screened-out point never predicts under the shortlist's
// cutoff by more than the slack).
func TestScreenKeepsAnalyticalWinnerFirst(t *testing.T) {
	topo := power5.DefaultTopology()
	points := userPoints(t, topo)
	job := screenJob()
	m := core.DefaultModel()
	loads := RankLoads(job)
	comm := mpisim.TopologyCommLatency(topo)
	best, bestPred := -1, 0.0
	for i := range points {
		pl := points[i].Placement()
		p := m.PredictCycles(loads, pl.CPU, pl.Prio, comm)
		if best < 0 || p < bestPred {
			best, bestPred = i, p
		}
	}
	short := Screen(job, points, topo, 4, 8, m)
	for _, idx := range short {
		if idx == best {
			return
		}
	}
	t.Fatalf("best-predicted point %d (%v) missing from shortlist %v", best, points[best], short)
}

func BenchmarkScreenPredictions(b *testing.B) {
	topo := power5.Topology{Chips: 2, CoresPerChip: 2, SMTWays: 2}
	points, err := Enumerate(4, Space{Topology: topo})
	if err != nil {
		b.Fatal(err)
	}
	job := screenJob()
	m := core.DefaultModel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		short := Screen(job, points, topo, 8, GuardBand(len(points)), m)
		if len(short) == 0 {
			b.Fatal("empty shortlist")
		}
	}
	b.ReportMetric(float64(len(points)), "points")
}

func ExampleScreen() {
	topo := power5.DefaultTopology()
	points, _ := Enumerate(4, Space{Topology: topo})
	job := screenJob()
	short := Screen(job, points, topo, 4, 8, core.DefaultModel())
	fmt.Println(len(points) > len(short), len(short) >= 12)
	// Output: true true
}

// TestRankLoadsDemandClasses: compute kinds with a calibrated IPC
// ceiling split into their own demand class; purely decode-elastic
// programs keep Classes nil so the predictor's fast path stays on.
func TestRankLoadsDemandClasses(t *testing.T) {
	job := &mpisim.Job{Name: "classes", Ranks: []mpisim.Program{{
		mpisim.Compute(workload.Load{Kind: workload.FPU, N: 8000}),
		mpisim.Compute(workload.Load{Kind: workload.Mem, N: 2000}),
		mpisim.Compute(workload.Load{Kind: workload.Mem, N: 500}),
		mpisim.Barrier(),
	}, {
		mpisim.Compute(workload.Load{Kind: workload.FXU, N: 3000}),
		mpisim.Barrier(),
	}}}
	loads := RankLoads(job)
	if loads[0].Compute != 10500 {
		t.Errorf("rank 0 Compute = %v, want 10500", loads[0].Compute)
	}
	want := []core.ComputeClass{{Work: 8000}, {Work: 2500, Demand: kindDemand[workload.Mem]}}
	if !reflect.DeepEqual(loads[0].Classes, want) {
		t.Errorf("rank 0 Classes = %+v, want %+v", loads[0].Classes, want)
	}
	if loads[1].Classes != nil {
		t.Errorf("elastic-only rank grew classes: %+v", loads[1].Classes)
	}
	if loads[1].Compute != 3000 {
		t.Errorf("rank 1 Compute = %v, want 3000", loads[1].Compute)
	}
}
