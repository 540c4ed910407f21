// Benchmarks regenerating every table and figure of the paper (one
// benchmark per artifact), plus ablations and micro-benchmarks of the
// simulator itself.  Each experiment benchmark reports the measured
// execution times and imbalances as custom metrics next to the paper's
// values, so `go test -bench=.` doubles as the reproduction run:
//
//	BenchmarkTable4MetBench/caseC-8   1   ...  74.90 paper-exec-s  0.000177 sim-exec-s
//
// Shapes (who wins, orderings, inversions) are asserted by the Check*
// functions; a failed shape fails the benchmark.
package smtbalance

import (
	"bytes"
	"context"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/hwpri"
	"repro/internal/power5"
	"repro/internal/workload"
)

// benchOpt is the full documented scale.
var benchOpt = experiments.Options{Scale: 1.0, TraceWidth: 80}

// reportCases exposes each case's measured and paper numbers as
// sub-benchmark metrics.
func reportCases(b *testing.B, cases []experiments.CaseResult) {
	for _, c := range cases {
		c := c
		b.Run("case"+c.Case, func(b *testing.B) {
			b.ReportMetric(c.ExecSeconds, "sim-exec-s")
			b.ReportMetric(c.PaperExecSeconds, "paper-exec-s")
			b.ReportMetric(c.ImbalancePct, "sim-imb-%")
			b.ReportMetric(c.PaperImbalancePct, "paper-imb-%")
		})
	}
}

// BenchmarkTable1PrioritySemantics measures the pure priority-to-
// allocation computation of Table I/II semantics (the hot path of the
// decode stage).
func BenchmarkTable1PrioritySemantics(b *testing.B) {
	var sink hwpri.Allocation
	for i := 0; i < b.N; i++ {
		sink = hwpri.Alloc(hwpri.Priority(i%5+2), hwpri.Priority((i/5)%5+2))
	}
	_ = sink
}

// BenchmarkTable2DecodeSlots regenerates Table II: the decode-cycle split
// per priority difference, measured on the simulator.
func BenchmarkTable2DecodeSlots(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.CheckTable2(rows); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[4].MeasuredA*32, "slots-of-32-at-diff4")
		}
	}
}

// BenchmarkTable3SpecialModes regenerates Table III: the priority 0/1
// regimes.
func BenchmarkTable3SpecialModes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.CheckTable3(rows); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1 regenerates the illustrative Figure 1.
func BenchmarkFigure1(b *testing.B) {
	var f *experiments.Figure1Result
	for i := 0; i < b.N; i++ {
		var err error
		f, err = experiments.Figure1(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.CheckFigure1(f); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*(f.ImbalancedSeconds-f.BalancedSeconds)/f.ImbalancedSeconds, "gain-%")
}

// BenchmarkTable4MetBench regenerates Table IV / Figure 2 (MetBench cases
// A-D).  Paper headline: case C improves 8.26% over A; case D regresses.
func BenchmarkTable4MetBench(b *testing.B) {
	var cases []experiments.CaseResult
	for i := 0; i < b.N; i++ {
		var err error
		cases, err = experiments.Table4(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.CheckTable4(cases); err != nil {
			b.Fatal(err)
		}
	}
	reportCases(b, cases)
}

// BenchmarkTable5BTMZ regenerates Table V / Figure 3 (BT-MZ ST + cases
// A-D).  Paper headline: case D improves 18.08% over A.
func BenchmarkTable5BTMZ(b *testing.B) {
	var cases []experiments.CaseResult
	for i := 0; i < b.N; i++ {
		var err error
		cases, err = experiments.Table5(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.CheckTable5(cases); err != nil {
			b.Fatal(err)
		}
	}
	reportCases(b, cases)
}

// BenchmarkTable6SIESTA regenerates Table VI / Figure 4 (SIESTA ST +
// cases A-D).  Paper headline: case C improves 8.1%; case D loses 13.7%.
func BenchmarkTable6SIESTA(b *testing.B) {
	var cases []experiments.CaseResult
	for i := 0; i < b.N; i++ {
		var err error
		cases, err = experiments.Table6(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.CheckTable6(cases); err != nil {
			b.Fatal(err)
		}
	}
	reportCases(b, cases)
}

// BenchmarkPrioritySweep measures the Section VII-A Case D observation:
// the penalized thread's throughput collapses exponentially with the
// priority difference.
func BenchmarkPrioritySweep(b *testing.B) {
	diffs := []struct {
		name   string
		pa, pb hwpri.Priority
	}{
		{"diff0", 4, 4}, {"diff1", 5, 4}, {"diff2", 6, 4}, {"diff3", 6, 3}, {"diff4", 6, 2},
	}
	for _, d := range diffs {
		d := d
		b.Run(d.name, func(b *testing.B) {
			var penalized float64
			for i := 0; i < b.N; i++ {
				ch := power5.MustNew(power5.DefaultConfig())
				ch.SetPriority(0, 0, d.pa)
				ch.SetPriority(0, 1, d.pb)
				ch.SetStream(0, 0, workload.Load{Kind: workload.FPU, N: 1 << 62, Seed: 1}.Stream())
				ch.SetStream(0, 1, workload.Load{Kind: workload.FPU, N: 1 << 62, Seed: 2, Base: 1 << 32}.Stream())
				ch.Run(100_000)
				penalized = float64(ch.Stats(0, 1).Completed) / 100_000
			}
			b.ReportMetric(penalized, "penalized-IPC")
		})
	}
}

// BenchmarkKernelPatchAblation measures the cost of running the balanced
// configuration on an unpatched kernel (Section VI motivation).
func BenchmarkKernelPatchAblation(b *testing.B) {
	var r *experiments.KernelPatchResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.KernelPatchAblation(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.CheckKernelPatch(r); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*(r.VanillaSeconds-r.PatchedSeconds)/r.PatchedSeconds, "vanilla-loss-%")
}

// BenchmarkDynamicBalancer measures the Section VIII extension: the
// online balancer against the best static assignment on the
// moving-bottleneck SIESTA model.
func BenchmarkDynamicBalancer(b *testing.B) {
	var r *experiments.DynamicResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.DynamicExtension(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.CheckDynamic(r); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*(r.ReferenceSeconds-r.DynamicSeconds)/r.ReferenceSeconds, "dynamic-gain-%")
	b.ReportMetric(float64(r.Moves), "priority-moves")
}

// BenchmarkCacheWarmupAblation quantifies the cold-start substitution
// documented in DESIGN.md: without pre-warming, the scaled-down runs are
// dominated by cold misses the paper's 80-second runs amortize away.
func BenchmarkCacheWarmupAblation(b *testing.B) {
	job := Job{Name: "warmup", Ranks: [][]Phase{
		{Compute("fpu", 50_000), Barrier()},
		{Compute("fpu", 50_000), Barrier()},
		{Compute("fpu", 50_000), Barrier()},
		{Compute("fpu", 50_000), Barrier()},
	}}
	for _, cold := range []bool{false, true} {
		name := "warm"
		if cold {
			name = "cold"
		}
		b.Run(name, func(b *testing.B) {
			var res *Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = runWith(job, PinInOrder(4), &Options{NoOSNoise: true, ColdCaches: cold})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Cycles), "sim-cycles")
		})
	}
}

// BenchmarkSimulatorThroughput measures the chip simulator's speed in
// simulated cycles per wall second — the practical limit on experiment
// scale.
func BenchmarkSimulatorThroughput(b *testing.B) {
	ch := power5.MustNew(power5.DefaultConfig())
	ch.SetStream(0, 0, workload.Load{Kind: workload.Mixed, N: 1 << 62, Seed: 1}.Stream())
	ch.SetStream(0, 1, workload.Load{Kind: workload.FPU, N: 1 << 62, Seed: 2, Base: 1 << 32}.Stream())
	ch.SetStream(1, 0, workload.Load{Kind: workload.L2, N: 1 << 62, Seed: 3, Base: 2 << 32}.Stream())
	ch.SetStream(1, 1, workload.Load{Kind: workload.Spin, Seed: 4, Base: 3 << 32}.Stream())
	b.ResetTimer()
	ch.Run(int64(b.N))
	b.ReportMetric(float64(b.N), "sim-cycles")
}

// BenchmarkExtrinsicNoise measures the Section II-B scenario: a daemon
// bound to one CPU imbalances a balanced application, and favoring the
// victim by one priority step recovers part of the loss transparently.
func BenchmarkExtrinsicNoise(b *testing.B) {
	var r *experiments.ExtrinsicResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.ExtrinsicNoise(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.CheckExtrinsic(r); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.NoisyImbalance, "noisy-imb-%")
	b.ReportMetric(100*(r.NoisySeconds-r.CompensatedSeconds)/r.NoisySeconds, "recovered-%")
}

// BenchmarkCacheHitSpeedup measures the Machine's deterministic result
// cache: one cold run of the quickstart-sized job versus cached re-runs
// of the identical configuration.  The cached path must be at least 10x
// faster — it is a map lookup plus a shallow copy against a full
// simulation — and the benchmark fails if it is not, so CI's bench
// smoke run guards the cache from regressing into uselessness.
func BenchmarkCacheHitSpeedup(b *testing.B) {
	job := Job{Name: "cache", Ranks: [][]Phase{
		{Compute("fpu", 50_000), Barrier()},
		{Compute("fpu", 220_000), Barrier()},
		{Compute("fpu", 50_000), Barrier()},
		{Compute("fpu", 220_000), Barrier()},
	}}
	m, err := NewMachine(nil)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	pl := PinInOrder(4)

	start := time.Now()
	cold, err := m.Run(ctx, job, pl)
	if err != nil {
		b.Fatal(err)
	}
	coldTime := time.Since(start)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := m.Run(ctx, job, pl)
		if err != nil {
			b.Fatal(err)
		}
		if res.Cycles != cold.Cycles {
			b.Fatalf("cached run returned %d cycles, cold run %d", res.Cycles, cold.Cycles)
		}
	}
	b.StopTimer()
	if st := m.CacheStats(); st.Hits < int64(b.N) {
		b.Fatalf("cache hits %d < %d re-runs", st.Hits, b.N)
	}
	// Gate on an average over a fixed batch of cached runs, independent
	// of b.N: under CI's -benchtime=1x a single-iteration sample would
	// let one scheduler hiccup fail the build.
	const warmRuns = 256
	warmStart := time.Now()
	for i := 0; i < warmRuns; i++ {
		if _, err := m.Run(ctx, job, pl); err != nil {
			b.Fatal(err)
		}
	}
	warmTime := time.Since(warmStart) / warmRuns
	speedup := float64(coldTime) / float64(warmTime)
	b.ReportMetric(speedup, "cache-speedup-x")
	b.ReportMetric(coldTime.Seconds()*1000, "cold-ms")
	b.ReportMetric(warmTime.Seconds()*1000, "warm-ms")
	if speedup < 10 {
		b.Fatalf("cache speedup %.1fx < 10x (cold %v, warm %v)", speedup, coldTime, warmTime)
	}
}

// BenchmarkPhaseSkipSpeedup measures the phase-skip fast path on the
// Table V BT-MZ job (the paper's headline workload): a full exact
// per-cycle run against the default run, which detects the steady-state
// iteration and advances across repetitions analytically.  The two runs
// must agree byte for byte — including the serialized trace — and the
// fast path must be at least 5x faster; the benchmark fails otherwise,
// so CI's bench smoke run guards both the speedup and the identity.
// The end-to-end effect is recorded by `bash perfbench/run.sh
// --workload sweep-phaseskip` (sim_mcycles_per_s; with --trace 1 also
// mpisim.skip_frac and mpisim.skipped_cycles).
func BenchmarkPhaseSkipSpeedup(b *testing.B) {
	// Table V BT-MZ zone loads (P1..P4 = 18/24/67/100% of the heaviest),
	// ring exchanges each iteration and a closing barrier, iterated long
	// enough that the steady state dominates, as in the paper's runs.
	loads := []int64{39_600, 52_800, 147_400, 220_000}
	job := Job{Name: "btmz-phaseskip"}
	for r, n := range loads {
		var prog []Phase
		for i := 0; i < 72; i++ {
			prog = append(prog, Compute("fpu", n), Exchange(16<<10, (r+1)%4, (r+3)%4))
		}
		prog = append(prog, Barrier())
		job.Ranks = append(job.Ranks, prog)
	}
	pl := PinInOrder(4)
	opts := &Options{NoOSNoise: true}
	exactOpts := *opts
	exactOpts.Exact = true
	ctx := context.Background()
	// runSim, not Machine.Run: the result cache keys both execution modes
	// together, so cached replies would make the comparison vacuous.
	run := func(o *Options) *Result {
		res, err := runSim(ctx, job, pl, o)
		if err != nil {
			b.Fatal(err)
		}
		return res
	}

	// Identity gate: the fast path may only apply provably exact skips.
	exact, fast := run(&exactOpts), run(opts)
	if fast.SkippedCycles == 0 {
		b.Fatal("phase-skip never engaged on the BT-MZ job")
	}
	if exact.SkippedCycles != 0 {
		b.Fatalf("exact run skipped %d cycles", exact.SkippedCycles)
	}
	var be, bf bytes.Buffer
	if err := exact.WriteTraceCSV(&be); err != nil {
		b.Fatal(err)
	}
	if err := fast.WriteTraceCSV(&bf); err != nil {
		b.Fatal(err)
	}
	if exact.Cycles != fast.Cycles || exact.Seconds != fast.Seconds ||
		exact.ImbalancePct != fast.ImbalancePct || exact.Iterations != fast.Iterations ||
		!reflect.DeepEqual(exact.Ranks, fast.Ranks) || !bytes.Equal(be.Bytes(), bf.Bytes()) {
		b.Fatalf("fast run diverges from exact run: %d vs %d cycles, traces %d vs %d bytes",
			fast.Cycles, exact.Cycles, bf.Len(), be.Len())
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(opts)
	}
	b.StopTimer()

	// Speedup gate, independent of b.N: median of paired exact/fast
	// samples, so one scheduler hiccup cannot fail CI's -benchtime=1x run.
	const samples = 3
	ratios := make([]float64, 0, samples)
	var exactSec, fastSec float64
	for i := 0; i < samples; i++ {
		t0 := time.Now()
		run(&exactOpts)
		t1 := time.Now()
		run(opts)
		t2 := time.Now()
		de, df := t1.Sub(t0), t2.Sub(t1)
		exactSec, fastSec = de.Seconds(), df.Seconds()
		ratios = append(ratios, float64(de)/float64(df))
	}
	sort.Float64s(ratios)
	speedup := ratios[samples/2]
	b.ReportMetric(speedup, "phase-skip-speedup-x")
	b.ReportMetric(exactSec*1000, "exact-ms")
	b.ReportMetric(fastSec*1000, "fast-ms")
	b.ReportMetric(100*float64(fast.SkippedCycles)/float64(fast.Cycles), "skipped-%")
	if speedup < 5 {
		b.Fatalf("phase-skip speedup %.2fx < 5x (median of %d paired runs)", speedup, samples)
	}
}

// BenchmarkPolicyOverhead measures what attaching a balancing policy
// costs on the Table V BT-MZ job: the no-policy fast path (no iteration
// hook at all) against StaticPolicy (hook attached, zero actions) and
// the active built-ins.  StaticPolicy's hook must be free — under 2% of
// the no-policy run — and behaviorally invisible (identical simulated
// cycles); the benchmark fails otherwise, so CI's bench smoke guards the
// policy engine's overhead.  Record with the README recipe into
// BENCH_policy_baseline.json.
func BenchmarkPolicyOverhead(b *testing.B) {
	// The Table V BT-MZ load distribution (P1..P4 = 18/24/67/100% of the
	// heaviest), paired heavy-with-light per core as in the paper's
	// balanced cases, iterating so online policies get traction.
	loads := []int64{40000, 7200, 26800, 9600}
	job := Job{Name: "btmz-policy"}
	for _, n := range loads {
		var prog []Phase
		for i := 0; i < 6; i++ {
			prog = append(prog, Compute("fpu", n), Barrier())
		}
		job.Ranks = append(job.Ranks, prog)
	}
	pl := PinInOrder(4)
	opts := &Options{NoOSNoise: true}
	ctx := context.Background()
	// runOnce takes the failing *testing.B explicitly so sub-benchmarks
	// fail on their own goroutine, as FailNow requires.
	runOnce := func(b *testing.B, pol Policy) *Result {
		// runSim, not Machine.Run: the result cache would otherwise turn
		// every timed run after the first into a map lookup.
		o := *opts
		o.Policy = pol
		res, err := runSim(ctx, job, pl, &o)
		if err != nil {
			b.Fatal(err)
		}
		return res
	}

	for _, v := range []struct {
		name string
		pol  Policy
	}{
		{"nopolicy", nil},
		{"static", StaticPolicy{}},
		{"dyn", &PaperDynamic{}},
		{"feedback", &FeedbackPolicy{}},
	} {
		b.Run(v.name, func(b *testing.B) {
			var res *Result
			for i := 0; i < b.N; i++ {
				res = runOnce(b, v.pol)
			}
			b.ReportMetric(float64(res.BalancerMoves), "moves")
			b.ReportMetric(float64(res.Cycles), "sim-cycles")
		})
	}

	// Behavioral gate: a no-op policy must not change the simulation.
	if noRes, stRes := runOnce(b, nil), runOnce(b, StaticPolicy{}); noRes.Cycles != stRes.Cycles {
		b.Fatalf("StaticPolicy changed the run: %d vs %d cycles", stRes.Cycles, noRes.Cycles)
	}
	// Overhead gate, independent of b.N so CI's -benchtime=1x still
	// measures.  Shared runners are noisy, so each sample is a
	// back-to-back pair — alternating which variant runs first to cancel
	// drift — and the gate compares the median of the paired ratios,
	// where machine noise cancels and only a systematic hook cost
	// survives.
	const samples = 25
	ratios := make([]float64, 0, samples)
	for i := 0; i < samples; i++ {
		var dNo, dSt time.Duration
		if i%2 == 0 {
			t0 := time.Now()
			runOnce(b, nil)
			t1 := time.Now()
			runOnce(b, StaticPolicy{})
			dNo, dSt = t1.Sub(t0), time.Since(t1)
		} else {
			t0 := time.Now()
			runOnce(b, StaticPolicy{})
			t1 := time.Now()
			runOnce(b, nil)
			dSt, dNo = t1.Sub(t0), time.Since(t1)
		}
		ratios = append(ratios, float64(dSt)/float64(dNo))
	}
	sort.Float64s(ratios)
	overhead := ratios[samples/2] - 1
	b.ReportMetric(overhead*100, "static-overhead-%")
	if overhead > 0.02 {
		b.Fatalf("StaticPolicy overhead %.2f%% > 2%% (median of %d paired runs)", overhead*100, samples)
	}
}
