package smtbalance

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"
)

// The screening differential suite: a screened sweep is the exhaustive
// sweep minus configurations the analytical predictor ruled out, so on
// every golden-style workload the two must agree on the winner, and the
// screened ranking must be exactly the exhaustive ranking restricted to
// the simulated shortlist — any other relationship means screening
// changed a simulation, which it must never do.

// screenGoldenJobs returns paper-shaped workloads at test scale: the
// Table IV MetBench split (light/heavy alternating), the Table V BT-MZ
// zone loads (18/24/67/100% of the heaviest) with their ring exchange,
// and a Table VI SIESTA-style mixed distribution.
func screenGoldenJobs() map[string]Job {
	jobs := make(map[string]Job)

	metbench := Job{Name: "metbench-screen"}
	for _, n := range []int64{6000, 24000, 6000, 24000} {
		metbench.Ranks = append(metbench.Ranks, []Phase{
			Compute("fpu", n), Barrier(),
			Compute("fpu", n), Barrier(),
		})
	}
	jobs["metbench"] = metbench

	btmz := Job{Name: "btmz-screen"}
	for r, n := range []int64{3960, 5280, 14740, 22000} {
		var prog []Phase
		for i := 0; i < 3; i++ {
			prog = append(prog, Compute("fpu", n), Exchange(4<<10, (r+1)%4, (r+3)%4), Barrier())
		}
		btmz.Ranks = append(btmz.Ranks, prog)
	}
	jobs["btmz"] = btmz

	siesta := Job{Name: "siesta-screen"}
	for _, n := range []int64{16000, 11000, 7000, 20000} {
		siesta.Ranks = append(siesta.Ranks, []Phase{
			Compute("mem", n/4), Compute("fpu", n), Barrier(),
		})
	}
	jobs["siesta"] = siesta

	return jobs
}

// assertScreenedRestriction checks the screening contract between an
// exhaustive and a screened result of the same sweep: same winner, and
// the screened ranking equals the exhaustive ranking with the
// screened-out entries deleted.
func assertScreenedRestriction(t *testing.T, exhaustive, screened *SweepResult) {
	t.Helper()
	if screened.Screened == 0 {
		t.Fatal("screening never engaged")
	}
	if got, want := screened.Evaluated+screened.Screened, exhaustive.Evaluated; got != want {
		t.Errorf("Evaluated %d + Screened %d = %d, want the full space %d",
			screened.Evaluated, screened.Screened, got, want)
	}
	eb, err := exhaustive.Best()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := screened.Best()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(eb, sb) {
		t.Errorf("winners differ:\nexhaustive: %+v\nscreened:   %+v", eb, sb)
	}
	// Restriction: walk the exhaustive ranking, keeping entries the
	// screened sweep also ranked; the result must be the screened
	// ranking, byte for byte.
	simulated := make(map[string]bool, len(screened.Entries))
	entryKey := func(e SweepEntry) string {
		var b strings.Builder
		for _, c := range e.Placement.CPU {
			b.WriteByte(byte('0' + c))
		}
		b.WriteByte('|')
		for _, p := range e.Placement.Priority {
			b.WriteByte(byte('0' + int(p)))
		}
		b.WriteByte('|')
		b.WriteString(e.Policy)
		return b.String()
	}
	for _, e := range screened.Entries {
		simulated[entryKey(e)] = true
	}
	var restricted []SweepEntry
	for _, e := range exhaustive.Entries {
		if simulated[entryKey(e)] {
			restricted = append(restricted, e)
		}
	}
	if !reflect.DeepEqual(restricted, screened.Entries) {
		t.Errorf("screened ranking is not the exhaustive ranking restricted to the shortlist\nrestricted[:3]: %+v\nscreened[:3]:   %+v",
			restricted[:min(3, len(restricted))], screened.Entries[:min(3, len(screened.Entries))])
	}
}

// TestScreenedSweepWinnerIdentityGolden: on every golden-style workload
// and on 1- and 2-chip topologies, the screened two-level sweep finds
// the exhaustive winner and ranks its shortlist identically.  Fresh
// machines on each side keep the result caches from masking a wrong
// shortlist with warm entries.
func TestScreenedSweepWinnerIdentityGolden(t *testing.T) {
	topos := map[string]Topology{"1chip": DefaultTopology(), "2chip": twoChips()}
	for tn, topo := range topos {
		for jn, job := range screenGoldenJobs() {
			t.Run(tn+"/"+jn, func(t *testing.T) {
				opts := &Options{Topology: topo, NoOSNoise: true}
				mex, err := NewMachine(opts)
				if err != nil {
					t.Fatal(err)
				}
				exhaustive, err := mex.SweepAll(t.Context(), job, UserSettableSpace(), nil)
				if err != nil {
					t.Fatal(err)
				}
				msc, err := NewMachine(opts)
				if err != nil {
					t.Fatal(err)
				}
				screened, err := msc.SweepAll(t.Context(), job, UserSettableSpace(),
					&SweepOptions{Screen: 4})
				if err != nil {
					t.Fatal(err)
				}
				assertScreenedRestriction(t, exhaustive, screened)
			})
		}
	}
}

// TestScreenedSweepShrinkingScreenNeverCorrupts: tightening the
// simulation budget can only drop entries from the ranking — every
// surviving entry keeps the score, position-relative order and metrics
// the exhaustive sweep gave it, for every budget down to Screen: 1.
func TestScreenedSweepShrinkingScreenNeverCorrupts(t *testing.T) {
	job := screenGoldenJobs()["metbench"]
	mex, err := NewMachine(&Options{NoOSNoise: true})
	if err != nil {
		t.Fatal(err)
	}
	exhaustive, err := mex.SweepAll(t.Context(), job, UserSettableSpace(), nil)
	if err != nil {
		t.Fatal(err)
	}
	prevEvaluated := exhaustive.Evaluated + 1
	for _, screen := range []int{64, 16, 4, 1} {
		msc, err := NewMachine(&Options{NoOSNoise: true})
		if err != nil {
			t.Fatal(err)
		}
		screened, err := msc.SweepAll(t.Context(), job, UserSettableSpace(),
			&SweepOptions{Screen: screen})
		if err != nil {
			t.Fatal(err)
		}
		assertScreenedRestriction(t, exhaustive, screened)
		if screened.Evaluated > prevEvaluated {
			t.Errorf("Screen: %d simulated %d points, more than the looser budget's %d",
				screen, screened.Evaluated, prevEvaluated)
		}
		prevEvaluated = screened.Evaluated
	}
}

// TestScreenedSweepPolicyAxis: with a policy axis the placement points
// are screened once and the shortlist runs under every policy, so the
// restriction property holds across the whole policy × placement cross
// product and Screened counts whole policy columns.
func TestScreenedSweepPolicyAxis(t *testing.T) {
	topo := DefaultTopology()
	job, err := mustScenarioJob(t, "step,base=5000,iters=4,skew=5", topo)
	if err != nil {
		t.Fatal(err)
	}
	space := Space{Policies: []Policy{StaticPolicy{}, &PaperDynamic{}}}
	mex, err := NewMachine(&Options{NoOSNoise: true})
	if err != nil {
		t.Fatal(err)
	}
	exhaustive, err := mex.SweepAll(t.Context(), job, space, nil)
	if err != nil {
		t.Fatal(err)
	}
	msc, err := NewMachine(&Options{NoOSNoise: true})
	if err != nil {
		t.Fatal(err)
	}
	screened, err := msc.SweepAll(t.Context(), job, space, &SweepOptions{Screen: 4})
	if err != nil {
		t.Fatal(err)
	}
	assertScreenedRestriction(t, exhaustive, screened)
	if screened.Screened%len(space.Policies) != 0 {
		t.Errorf("Screened %d is not a multiple of the %d-policy axis",
			screened.Screened, len(space.Policies))
	}
}

// TestSweepScreenValidation pins the Screen knob's edges: negative is an
// error, and a budget at least the space size degenerates to the
// exhaustive sweep (nothing screened).
func TestSweepScreenValidation(t *testing.T) {
	job := sweepTestJob(2000, 8000)
	m, err := NewMachine(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.SweepAll(t.Context(), job, UserSettableSpace(), &SweepOptions{Screen: -1}); err == nil {
		t.Error("negative Screen accepted")
	} else if !strings.HasPrefix(err.Error(), "smtbalance: ") {
		t.Errorf("negative-Screen error not wrapped: %v", err)
	}
	res, err := m.SweepAll(t.Context(), job, UserSettableSpace(), &SweepOptions{Screen: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Screened != 0 {
		t.Errorf("oversized budget screened %d points", res.Screened)
	}
	if res.Evaluated != 243 {
		t.Errorf("oversized budget evaluated %d points, want the full 243", res.Evaluated)
	}
}

// BenchmarkScreenedSweep measures the two-level coarse → fine sweep
// against the exhaustive sweep on the paper's 4-rank spaces: 243
// configurations on the 1×2×2 machine and 486 on a 2×2×2 node.  Every
// sample runs both sides on fresh machines (the result cache would
// otherwise turn the comparison into map lookups), gates winner
// identity on every sample, and on the 486-point space gates a ≥ 3×
// median wall-clock speedup — the tentpole claim, guarded by CI's bench
// smoke.  Screened sweeps are recorded end to end by `bash
// perfbench/run.sh --workload sweep-phaseskip` (throughput_per_s; with
// --trace 1 also sweep.points_screened, core.screen_ms and
// core.winner_kept).
func BenchmarkScreenedSweep(b *testing.B) {
	job := Job{Name: "btmz-screened"}
	for r, n := range []int64{3960, 5280, 14740, 22000} {
		var prog []Phase
		for i := 0; i < 3; i++ {
			prog = append(prog, Compute("fpu", n), Exchange(4<<10, (r+1)%4, (r+3)%4), Barrier())
		}
		job.Ranks = append(job.Ranks, prog)
	}
	spaces := []struct {
		name    string
		topo    Topology
		points  int
		gate    float64
		samples int
	}{
		{"243-1chip", DefaultTopology(), 243, 0, 3},
		{"486-2chip", Topology{Chips: 2, CoresPerChip: 2, SMTWays: 2}, 486, 3, 3},
	}
	ctx := context.Background()
	for _, sp := range spaces {
		sp := sp
		b.Run(sp.name, func(b *testing.B) {
			opts := &Options{Topology: sp.topo, NoOSNoise: true}
			sweepOn := func(b *testing.B, screen int) (*SweepResult, time.Duration) {
				m, err := NewMachine(opts)
				if err != nil {
					b.Fatal(err)
				}
				start := time.Now()
				res, err := m.SweepAll(ctx, job, UserSettableSpace(), &SweepOptions{Screen: screen})
				if err != nil {
					b.Fatal(err)
				}
				return res, time.Since(start)
			}

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sweepOn(b, 4)
			}
			b.StopTimer()

			// Identity and speedup gates on paired fresh-machine samples,
			// independent of b.N so CI's -benchtime=1x still measures; the
			// median ratio absorbs scheduler hiccups.
			ratios := make([]float64, 0, sp.samples)
			var exMS, scMS float64
			var screenedOut int
			for i := 0; i < sp.samples; i++ {
				exhaustive, exD := sweepOn(b, 0)
				screened, scD := sweepOn(b, 4)
				if exhaustive.Evaluated != sp.points {
					b.Fatalf("exhaustive space has %d points, want %d", exhaustive.Evaluated, sp.points)
				}
				eb, err := exhaustive.Best()
				if err != nil {
					b.Fatal(err)
				}
				sb, err := screened.Best()
				if err != nil {
					b.Fatal(err)
				}
				if !reflect.DeepEqual(eb, sb) {
					b.Fatalf("screened winner diverges from exhaustive:\nexhaustive: %+v\nscreened:   %+v", eb, sb)
				}
				if screened.Screened == 0 {
					b.Fatal("screening never engaged")
				}
				screenedOut = screened.Screened
				exMS, scMS = exD.Seconds()*1000, scD.Seconds()*1000
				ratios = append(ratios, float64(exD)/float64(scD))
			}
			// Median of sp.samples ratios.
			for i := range ratios {
				for j := i + 1; j < len(ratios); j++ {
					if ratios[j] < ratios[i] {
						ratios[i], ratios[j] = ratios[j], ratios[i]
					}
				}
			}
			speedup := ratios[len(ratios)/2]
			b.ReportMetric(speedup, "screen-speedup-x")
			b.ReportMetric(exMS, "exhaustive-ms")
			b.ReportMetric(scMS, "screened-ms")
			b.ReportMetric(float64(screenedOut), "screened-out")
			if sp.gate > 0 && speedup < sp.gate {
				b.Fatalf("screened sweep speedup %.2fx < %.0fx on the %d-point space (median of %d paired runs)",
					speedup, sp.gate, sp.points, sp.samples)
			}
		})
	}
}
