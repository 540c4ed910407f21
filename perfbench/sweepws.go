package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	smt "repro"
	"repro/internal/core"
	"repro/internal/mpisim"
	"repro/internal/power5"
	"repro/internal/sweep"
)

// sweepScreenK is the screened sweeps' top-K; with the guard band the
// shortlist is about a fifth of the 486-point 2×2×2 space.
const sweepScreenK = 8

// sweepDigestOps is sweep-phaseskip's fixed op prefix for sim_digest and
// the exact counts (its ops take seconds, so the prefix is short).
const sweepDigestOps = 2

var sweepOpts = smt.Options{Topology: topo2, NoOSNoise: true}

type sweepState struct {
	specs  []jobSpec
	jobs   []smt.Job
	points []sweep.Point
}

func setupSweep(ctx context.Context, seed uint64, n int) (*sweepState, error) {
	st := &sweepState{}
	for i := range n {
		spec := sweepJob(seed, i)
		st.specs = append(st.specs, spec)
		st.jobs = append(st.jobs, spec.public())
	}
	points, err := sweep.Enumerate(4, sweep.Space{Topology: innerTopo(topo2)})
	if err != nil {
		return nil, err
	}
	st.points = points
	// Warm the process (code, heap) with a few points of a job that is
	// the same for every seed: how long a job takes to settle into
	// phase-skip varies from job to job, and set-up time should not.
	m, err := smt.NewMachine(&sweepOpts)
	if err != nil {
		return nil, err
	}
	warm := sweepJob(0, 0).public()
	for _, pt := range points[:8] {
		if _, err := m.Run(ctx, warm, publicPlacement(pt.Placement())); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func publicPlacement(ipl mpisim.Placement) smt.Placement {
	pl := smt.Placement{CPU: ipl.CPU}
	for _, p := range ipl.Prio {
		pl.Priority = append(pl.Priority, smt.Priority(p))
	}
	return pl
}

// innerTopo converts a topology to the simulator's type; the zero value
// is the default machine, as in smtbalance.
func innerTopo(t smt.Topology) power5.Topology {
	if t == (smt.Topology{}) {
		t = smt.DefaultTopology()
	}
	return power5.Topology{Chips: t.Chips, CoresPerChip: t.CoresPerChip, SMTWays: t.SMTWays}
}

// screenedSweep is one sweep-phaseskip op: a screened Machine.SweepAll
// on a fresh Machine (a cold result cache) with one worker per CPU.
// It also returns the Machine's cache counters after the sweep.
func screenedSweep(ctx context.Context, tr *tracer, job smt.Job, workers, screen int) (*smt.SweepResult, time.Duration, smt.CacheStats, error) {
	m, err := smt.NewMachine(&sweepOpts)
	if err != nil {
		return nil, 0, smt.CacheStats{}, err
	}
	sp := tr.start("machine.SweepAll", 0)
	res, err := m.SweepAll(ctx, job, smt.Space{}, &smt.SweepOptions{Workers: workers, Screen: screen})
	return res, sp.end(), m.CacheStats(), err
}

// checkSweep verifies a finished sweep's shape: it covers the space,
// ranks every evaluated point, in score order, with positive cycles.
func checkSweep(rep *report, what string, res *smt.SweepResult, space int) bool {
	if res.Evaluated+res.Screened != space || len(res.Entries) != res.Evaluated || res.Evaluated == 0 {
		rep.fail("%s: evaluated %d + screened %d != %d points, %d entries", what, res.Evaluated, res.Screened, space, len(res.Entries))
		return false
	}
	for i, e := range res.Entries {
		if e.Cycles <= 0 || (i > 0 && e.Score < res.Entries[i-1].Score) {
			rep.fail("%s: entry %d out of order or empty", what, i)
			return false
		}
	}
	return true
}

func placementKey(pl smt.Placement) string { return fmt.Sprint(pl.CPU, pl.Priority) }

// runSweepPhaseSkip is sweep-phaseskip: a closed loop with one client,
// each op a screened SweepAll of a noise-free BT-MZ-shaped job on
// compute kernels.  Phase-skip engages on every point, so the
// limit-cycle detector, the screening predictor and the worker pool do
// most of the work.
func runSweepPhaseSkip(ctx context.Context, cfg config, rep *report) error {
	maxOps := int(cfg.seconds/time.Second) + sweepDigestOps
	g := cfg.gauge()
	st, err := timeSetups(rep, g, func() (*sweepState, error) { return setupSweep(ctx, cfg.seed, maxOps) })
	if err != nil {
		return err
	}
	var lat []float64
	var calls []timedCall
	var res0 *smt.SweepResult // op 0, which the checks outside the window sample
	var evaluated, evalPrefix, screened int
	var points []int   // per op in calls
	var cycles []int64 // per op in calls
	var stats smt.CacheStats
	var screenMs, predictNs []float64
	alloc0, gc0 := runtimeCounters()
	g.start()
	defer g.end()
	start := time.Now()
	for i := 0; i < len(st.jobs) && (i < sweepDigestOps || time.Since(start) < cfg.seconds); i++ {
		rep.attempted++
		at := time.Now()
		res, d, cs, err := screenedSweep(ctx, cfg.tr, st.jobs[i], cfg.workers, sweepScreenK)
		stats = addStats(stats, cs, smt.CacheStats{})
		if err != nil {
			rep.fail("op %d: %v", i, err)
			continue
		}
		calls = append(calls, timedCall{at, d})
		lat = append(lat, float64(d.Nanoseconds())/1e6)
		evaluated += res.Evaluated
		points = append(points, res.Evaluated)
		var c int64
		for _, e := range res.Entries {
			c += e.Cycles
		}
		cycles = append(cycles, c)
		if !checkSweep(rep, fmt.Sprintf("op %d", i), res, len(st.points)) {
			continue
		}
		if i == 0 {
			res0 = res
		}
		if i < sweepDigestOps {
			screened += res.Screened
			evalPrefix += res.Evaluated
			for _, e := range res.Entries {
				rep.hashStat(i, e.Placement.CPU, e.Placement.Priority, e.Cycles, e.Seconds, e.ImbalancePct, e.Score)
			}
			rep.digestOps++
		}
		if cfg.tr != nil {
			ms, ns, err := probeScreen(cfg.tr, rep, st.specs[i], st.points, res.Evaluated)
			if err != nil {
				return err
			}
			screenMs = append(screenMs, ms)
			predictNs = append(predictNs, ns)
		}
	}
	rep.addRuntime(alloc0, gc0, len(lat))
	if err := g.end(); err != nil {
		return err
	}
	steady := g.steady(calls)
	scaled := kept(g.scaled(calls), steady)
	var simCycles int64
	var simPoints int
	for i, c := range cycles {
		if steady[i] {
			simCycles += c
			simPoints += points[i]
		}
	}
	g.note(rep, "op", calls)
	rep.add("op_p50_ms", scaled, "steady screened Machine.SweepAll latency, scaled to the nominal host")
	rep.set("op_p90_ms", percentile(scaled, 90), len(scaled), "steady screened Machine.SweepAll latency, scaled to the nominal host")
	rep.set("sim_mcycles_per_s", float64(simCycles)/sum(scaled)*1e3/1e6, len(scaled), "simulated cycles of every evaluated point per nominal-host second of steady ops")
	rep.set("throughput_per_s", float64(simPoints)/sum(scaled)*1e3, len(scaled), "sweep points simulated per nominal-host second of steady ops (sweep_points_per_s)")
	if res0 == nil {
		return nil
	}

	// Checks outside the timed window, on op 0: the exhaustive winner
	// must be the screened winner, and sampled points must replay
	// byte-identically under Exact.
	kept, err := checkWinner(ctx, rep, st.jobs[0], res0, cfg.workers)
	if err != nil {
		return err
	}
	if err := checkExact(ctx, rep, cfg.seed, st.jobs[0], res0); err != nil {
		return err
	}
	if cfg.tr == nil {
		return nil
	}
	rep.set("core.winner_kept", kept, 1, "exhaustive winner inside the screened ranking, op 0")
	rep.add("core.screen_ms", screenMs, "direct sweep.Screen per op")
	rep.add("core.predict_ns", predictNs, "core.Model.PredictCycles per point")
	prefix := fmt.Sprintf("over the first %d ops", sweepDigestOps)
	rep.set("sweep.points_evaluated", float64(evalPrefix), sweepDigestOps, prefix)
	rep.set("sweep.points_screened", float64(screened), sweepDigestOps, prefix)
	reportCacheStats(rep, stats, evaluated)

	// Direct per-point runs of op 0's shortlist: each must give the
	// sweep entry's cycles.
	var direct directStats
	byPlacement := map[string]int64{}
	for _, e := range res0.Entries {
		byPlacement[placementKey(e.Placement)] = e.Cycles
	}
	sj, err := st.specs[0].sim()
	if err != nil {
		return err
	}
	cfgSim := simConfig(sweepOpts)
	for _, pi := range sweep.Screen(sj, st.points, innerTopo(topo2), sweepScreenK, sweep.GuardBand(len(st.points)), core.DefaultModel()) {
		ipl := st.points[pi].Placement()
		sp := cfg.tr.start("mpisim.RunCtx", 0)
		dres, err := mpisim.RunCtx(ctx, sj, ipl, cfgSim)
		dms := float64(sp.end().Nanoseconds()) / 1e6
		if err != nil {
			return err
		}
		pl := publicPlacement(ipl)
		if c, ok := byPlacement[placementKey(pl)]; !ok || c != dres.Cycles {
			rep.fail("op 0: direct run of point %v gave %d cycles, sweep entry %d (found %v)", pl, dres.Cycles, c, ok)
		}
		direct.add(dres, dms)
	}
	direct.report(rep, len(direct.ms))

	// The pool's parallel speedup: op 0's screened sweep on fresh
	// Machines, with one worker and with one per CPU.
	_, serial, _, err := screenedSweep(ctx, nil, st.jobs[0], 1, sweepScreenK)
	if err != nil {
		return err
	}
	_, parallel, _, err := screenedSweep(ctx, nil, st.jobs[0], cfg.workers, sweepScreenK)
	if err != nil {
		return err
	}
	rep.set("sweep.parallel_speedup", serial.Seconds()/parallel.Seconds(), 2,
		fmt.Sprintf("screened SweepAll of op 0's job, 1 worker over %d workers", cfg.workers))

	probe := []probeJob{{job: st.specs[0], opts: sweepOpts}, {job: st.specs[1%len(st.specs)], opts: sweepOpts}}
	if err := probeLayers(ctx, cfg, rep, probe); err != nil {
		return err
	}
	return traceOverhead(rep, func(tr *tracer) error {
		_, _, _, err := screenedSweep(ctx, tr, st.jobs[0], cfg.workers, sweepScreenK)
		return err
	})
}

// probeScreen times sweep.Screen on the op's job and, over every point
// of the space, core.Model.PredictCycles.  The shortlist must be the
// size of the Machine's.
func probeScreen(tr *tracer, rep *report, spec jobSpec, points []sweep.Point, evaluated int) (screenMs, predictNs float64, err error) {
	sj, err := spec.sim()
	if err != nil {
		return 0, 0, err
	}
	topo := innerTopo(topo2)
	sp := tr.start("sweep.Screen", 0)
	short := sweep.Screen(sj, points, topo, sweepScreenK, sweep.GuardBand(len(points)), core.DefaultModel())
	screenMs = float64(sp.end().Nanoseconds()) / 1e6
	if len(short) != evaluated {
		rep.fail("%s: direct sweep.Screen kept %d points, the Machine evaluated %d", spec.Name, len(short), evaluated)
	}
	loads := sweep.RankLoads(sj)
	comm := core.CommFn(mpisim.TopologyCommLatency(topo))
	model := core.DefaultModel()
	pls := make([]mpisim.Placement, len(points))
	for i, pt := range points {
		pls[i] = pt.Placement()
	}
	const reps = 20
	sp = tr.start("core.PredictCycles", 0)
	for range reps {
		for _, pl := range pls {
			predictSink += model.PredictCycles(loads, pl.CPU, pl.Prio, comm)
		}
	}
	predictNs = float64(sp.end().Nanoseconds()) / float64(reps*len(pls))
	return screenMs, predictNs, nil
}

var predictSink float64

// checkWinner runs the exhaustive sweep of job and requires its winner
// to be the screened winner.  It returns 1 when the exhaustive winner is
// in the screened ranking, else 0.
func checkWinner(ctx context.Context, rep *report, job smt.Job, screened *smt.SweepResult, workers int) (float64, error) {
	full, _, _, err := screenedSweep(ctx, nil, job, workers, 0)
	if err != nil {
		return 0, err
	}
	want, err := full.Best()
	if err != nil {
		return 0, err
	}
	got, err := screened.Best()
	if err != nil {
		return 0, err
	}
	if placementKey(want.Placement) != placementKey(got.Placement) || want.Cycles != got.Cycles {
		rep.fail("op 0: screened winner %v (%d cycles) differs from the exhaustive winner %v (%d cycles)",
			got.Placement, got.Cycles, want.Placement, want.Cycles)
	}
	for _, e := range screened.Entries {
		if placementKey(e.Placement) == placementKey(want.Placement) {
			return 1, nil
		}
	}
	return 0, nil
}

// checkExact re-runs a seeded sample of op 0's points with Exact and
// requires byte-identical Results and trace CSVs, and cycles equal to
// the sweep entry's.
func checkExact(ctx context.Context, rep *report, seed uint64, job smt.Job, res *smt.SweepResult) error {
	fast, err := smt.NewMachine(&sweepOpts)
	if err != nil {
		return err
	}
	exactOpts := sweepOpts
	exactOpts.Exact = true
	exact, err := smt.NewMachine(&exactOpts)
	if err != nil {
		return err
	}
	rng := newRand(seed, 99)
	for _, i := range []int{0, rng.IntN(len(res.Entries))} {
		e := res.Entries[i]
		a, err := fast.Run(ctx, job, e.Placement)
		if err != nil {
			return err
		}
		b, err := exact.Run(ctx, job, e.Placement)
		if err != nil {
			return err
		}
		fa, err := fingerprint(a)
		if err != nil {
			return err
		}
		fb, err := fingerprint(b)
		if err != nil {
			return err
		}
		if !bytes.Equal(fa, fb) || a.Cycles != e.Cycles {
			rep.fail("op 0 entry %d: phase-skip and exact runs differ (or differ from the sweep's %d cycles)", i, e.Cycles)
		}
	}
	return nil
}

// fingerprint renders a result's exported fields (SkippedCycles aside:
// it is diagnostic and differs between the two modes by design) and its
// trace CSV.
func fingerprint(r *smt.Result) ([]byte, error) {
	c := *r
	c.SkippedCycles = 0
	j, err := json.Marshal(c)
	if err != nil {
		return nil, err
	}
	buf := bytes.NewBuffer(j)
	err = r.WriteTraceCSV(buf)
	return buf.Bytes(), err
}
