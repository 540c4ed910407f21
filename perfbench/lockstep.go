package main

import (
	"context"
	"fmt"
	"time"

	smt "repro"
	"repro/internal/power5"
)

// digestOps is how many leading ops of a closed-loop workload feed
// sim_digest and the exact counts: a fixed prefix, so two runs of one
// seed compare whatever their window held.
const digestOps = 16

// preparedOp is a lockOp in the form Machine.RunPolicy takes.
type preparedOp struct {
	lockOp
	job smt.Job
	pl  smt.Placement
	pol smt.Policy
}

// lockState is run-lockstep's set-up: the op sequence and one Machine
// per topology, under the default Options (OS noise on, caches warm).
type lockState struct {
	ops      []preparedOp
	machines map[smt.Topology]*smt.Machine
}

func setupLockstep(ctx context.Context, seed uint64, n int) (*lockState, error) {
	st := &lockState{machines: map[smt.Topology]*smt.Machine{}}
	for _, op := range lockOps(seed, n) {
		job := op.Job.public()
		pl, err := op.Topo.PinInOrder(len(job.Ranks))
		if err != nil {
			return nil, err
		}
		pol, err := parsePolicy(op.Policy)
		if err != nil {
			return nil, err
		}
		st.ops = append(st.ops, preparedOp{op, job, pl, pol})
	}
	for _, t := range []smt.Topology{topo1, topo2} {
		m, err := smt.NewMachine(&smt.Options{Topology: t})
		if err != nil {
			return nil, err
		}
		st.machines[t] = m
		// Warm the process (code, heap) with a small run on a machine of
		// its own, so the first timed op is not the first simulation.
		warm, err := smt.NewMachine(&smt.Options{Topology: t})
		if err != nil {
			return nil, err
		}
		job := shapeJob("uniform", "fpu", "", t.Contexts(), 5, 10_000, 0).public()
		pl, err := t.PinInOrder(len(job.Ranks))
		if err != nil {
			return nil, err
		}
		if _, err := warm.Run(ctx, job, pl); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// timeSetups builds the workload's state at least minSetups times, and
// more while the set-ups so far took under setupFloor in total (cheap
// set-ups are noisy in relative terms), records the median as setup_s,
// scaled to the nominal host by the gauge, and returns the last state.
func timeSetups[T any](rep *report, g *speedGauge, build func() (T, error)) (T, error) {
	var st T
	var calls []timedCall
	var total time.Duration
	g.start()
	defer g.end()
	for len(calls) < minSetups || (len(calls) < maxSetups && total < setupFloor) {
		at := time.Now()
		var err error
		if st, err = build(); err != nil {
			return st, err
		}
		calls = append(calls, timedCall{at, time.Since(at)})
		total += calls[len(calls)-1].d
	}
	if err := g.end(); err != nil {
		return st, err
	}
	secs := kept(g.scaled(calls), g.steady(calls))
	for i := range secs {
		secs[i] /= 1e3
	}
	rep.add("setup_s", secs, "median of repeated steady set-ups, scaled to the nominal host")
	g.note(rep, "set-up", calls)
	return st, nil
}

// checkResult verifies one run: the rank count, a positive cycle count,
// and every rank retiring its declared compute instructions.  A rank's
// last instructions may still sit in its completion window when the
// final barrier ends the run, and those never retire
// (TestFinalWindowNeverRetires), so a rank may fall short by at most one
// window.  The retired count includes busy-wait spinning, so the check
// binds only on a rank that never waits, such as the heaviest rank of a
// ramp job.
func checkResult(rep *report, what string, job jobSpec, res *smt.Result) bool {
	window := int64(power5.DefaultConfig().WindowSize)
	if res == nil || res.Cycles <= 0 || len(res.Ranks) != job.ranks() {
		rep.fail("%s: bad result shape", what)
		return false
	}
	for r, rr := range res.Ranks {
		var declared int64
		for _, n := range job.Loads[r] {
			declared += n
		}
		if rr.Instructions < declared-window {
			rep.fail("%s: rank %d retired %d of %d declared instructions, spinning included", what, r, rr.Instructions, declared)
			return false
		}
	}
	return true
}

// hashResult feeds every simulated statistic of a result to sim_digest.
func hashResult(rep *report, label string, res *smt.Result) {
	rep.hashStat(label, res.Cycles, res.Seconds, res.ImbalancePct, res.Iterations, res.BalancerMoves, res.Policy)
	for _, rr := range res.Ranks {
		rep.hashStat(rr.CPU, rr.Core, rr.Chip, rr.Priority, rr.ComputePct, rr.SyncPct, rr.CommPct, rr.Instructions)
	}
}

// runLockstep is run-lockstep: a closed loop with one client issuing a
// seeded sequence of cold Machine.Run/RunPolicy calls under the default
// Options.  Phase-skip never engages here (OS noise is on), so the whole
// cost is the lockstep loop: power5, hwpri, oskernel ticks, mpisim.
func runLockstep(ctx context.Context, cfg config, rep *report) error {
	maxOps := int(cfg.seconds/time.Second)*40 + 2*digestOps
	g := cfg.gauge()
	st, err := timeSetups(rep, g, func() (*lockState, error) { return setupLockstep(ctx, cfg.seed, maxOps) })
	if err != nil {
		return err
	}
	before := map[smt.Topology]smt.CacheStats{}
	for t, m := range st.machines {
		before[t] = m.CacheStats()
	}
	var lat, overhead []float64
	var calls []timedCall
	byTemplate := make([][]float64, len(lockDeck))
	var cycles []int64 // per op in calls
	var direct directStats
	alloc0, gc0 := runtimeCounters()
	g.start()
	defer g.end()
	start := time.Now()
	for i := 0; i < len(st.ops) && (i < digestOps || time.Since(start) < cfg.seconds); i++ {
		op := st.ops[i]
		rep.attempted++
		at := time.Now()
		sp := cfg.tr.start("machine.RunPolicy", 0)
		res, err := st.machines[op.Topo].RunPolicy(ctx, op.job, op.pl, op.pol)
		d := sp.end()
		if err != nil {
			rep.fail("op %d (%s): %v", i, op.Job.Name, err)
			continue
		}
		calls = append(calls, timedCall{at, d})
		lat = append(lat, float64(d.Nanoseconds())/1e6)
		byTemplate[op.Template] = append(byTemplate[op.Template], lat[len(lat)-1])
		cycles = append(cycles, res.Cycles)
		if !checkResult(rep, fmt.Sprintf("op %d (%s)", i, op.Job.Name), op.Job, res) {
			continue
		}
		if i < digestOps {
			hashResult(rep, op.Job.Name, res)
			rep.digestOps++
		}
		if cfg.tr != nil {
			sp := cfg.tr.start("mpisim.RunCtx", 0)
			dres, err := directRun(ctx, op.Job, op.pl, smt.Options{Topology: op.Topo}, op.Policy)
			dms := float64(sp.end().Nanoseconds()) / 1e6
			if err != nil {
				return err
			}
			if dres.Cycles != res.Cycles {
				rep.fail("op %d: direct mpisim run gave %d cycles, Machine %d", i, dres.Cycles, res.Cycles)
			}
			direct.add(dres, dms)
			overhead = append(overhead, lat[len(lat)-1]-dms)
		}
	}
	rep.addRuntime(alloc0, gc0, len(lat))
	for ti, t := range lockDeck {
		rep.notes = append(rep.notes, fmt.Sprintf("template %2d %-10s %-4s %-4s %s %-8s p50 %8.2f ms over %d ops",
			ti, t.shape, t.kind, t.kind2, t.topo, t.policy, percentile(byTemplate[ti], 50), len(byTemplate[ti])))
	}

	if err := g.end(); err != nil {
		return err
	}
	steady := g.steady(calls)
	scaled := kept(g.scaled(calls), steady)
	var simCycles int64
	for i, c := range cycles {
		if steady[i] {
			simCycles += c
		}
	}
	g.note(rep, "op", calls)
	rep.add("op_p50_ms", scaled, "steady Machine.RunPolicy latency, scaled to the nominal host")
	rep.set("op_p90_ms", percentile(scaled, 90), len(scaled), "steady Machine.RunPolicy latency, scaled to the nominal host")
	rep.set("sim_mcycles_per_s", float64(simCycles)/sum(scaled)*1e3/1e6, len(scaled), "simulated cycles per nominal-host second of steady ops")
	rep.set("throughput_per_s", float64(len(scaled))/sum(scaled)*1e3, len(scaled), "runs completed per nominal-host second of steady ops (closed loop, one client)")
	var d smt.CacheStats
	for t, m := range st.machines {
		d = addStats(d, m.CacheStats(), before[t])
	}
	reportCacheStats(rep, d, rep.attempted)
	if cfg.tr == nil {
		return nil
	}
	direct.report(rep, digestOps)
	var probe []probeJob
	for _, op := range st.ops[:3] {
		probe = append(probe, probeJob{job: op.Job, opts: smt.Options{Topology: op.Topo}, policy: op.Policy})
	}
	if err := probeLayers(ctx, cfg, rep, probe); err != nil {
		return err
	}
	// Every window op is a miss with a direct run of its own job beside
	// it: a larger sample than the probe's.
	rep.add("machine.miss_ms", lat, "Machine.RunPolicy of the window's ops, all simulated")
	rep.add("machine.overhead_ms", overhead, "Machine.RunPolicy minus direct mpisim.RunCtx on each window op's job")
	return traceOverhead(rep, func(tr *tracer) error {
		for _, op := range st.ops[:8] {
			m, err := smt.NewMachine(&smt.Options{Topology: op.Topo})
			if err != nil {
				return err
			}
			sp := tr.start("machine.RunPolicy", 0)
			_, err = m.RunPolicy(ctx, op.job, op.pl, op.pol)
			sp.end()
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// addStats accumulates the CacheStats delta now − before onto acc.
func addStats(acc, now, before smt.CacheStats) smt.CacheStats {
	acc.Hits += now.Hits - before.Hits
	acc.Misses += now.Misses - before.Misses
	acc.Coalesced += now.Coalesced - before.Coalesced
	acc.DiskHits += now.DiskHits - before.DiskHits
	acc.DiskWrites += now.DiskWrites - before.DiskWrites
	return acc
}

// reportCacheStats records the Machine cache counters over the window
// and the share of calls that ran the simulator.
func reportCacheStats(rep *report, d smt.CacheStats, calls int) {
	rep.set("machine.hits", float64(d.Hits), 1, "over the timed window")
	rep.set("machine.misses", float64(d.Misses), 1, "over the timed window")
	rep.set("machine.coalesced", float64(d.Coalesced), 1, "over the timed window")
	rep.set("machine.disk_hits", float64(d.DiskHits), 1, "over the timed window")
	rep.set("machine.disk_writes", float64(d.DiskWrites), 1, "over the timed window")
	if calls > 0 {
		rep.set("machine.sim_frac", float64(d.Misses-d.Coalesced-d.DiskHits)/float64(calls), calls,
			"(misses - coalesced - disk hits) / calls")
	}
}

// traceOverhead runs pass once to warm up, then twice untraced and
// twice traced, alternating, and records how much longer the traced
// passes took.
func traceOverhead(rep *report, pass func(tr *tracer) error) error {
	if err := pass(nil); err != nil {
		return err
	}
	var off, on time.Duration
	for i := range 4 {
		var tr *tracer
		if i%2 == 1 {
			tr = newTracer()
		}
		t0 := time.Now()
		if err := pass(tr); err != nil {
			return err
		}
		if tr == nil {
			off += time.Since(t0)
		} else {
			on += time.Since(t0)
		}
	}
	rep.set("trace.overhead_pct", 100*(on.Seconds()-off.Seconds())/off.Seconds(), 2,
		"traced against untraced wall time of the same ops")
	return nil
}
