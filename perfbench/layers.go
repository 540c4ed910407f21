package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	smt "repro"
	"repro/internal/diskcache"
	"repro/internal/hwpri"
	"repro/internal/mpisim"
	"repro/internal/oskernel"
	"repro/internal/power5"
	"repro/internal/workload"
)

// simConfig is the mpisim configuration smtbalance builds for opts (see
// Options.simConfig), so a direct mpisim run simulates what Machine.Run
// simulates.
func simConfig(o smt.Options) mpisim.Config {
	kcfg := oskernel.DefaultConfig()
	kcfg.Patched = !o.VanillaKernel
	if o.NoOSNoise {
		kcfg.TickPeriod = 0
	}
	return mpisim.Config{
		Chip:       power5.DefaultConfig(),
		Topology:   innerTopo(o.Topology),
		Kernel:     kcfg,
		KernelSet:  true,
		ColdCaches: o.ColdCaches,
		Exact:      o.Exact,
	}
}

// parsePolicy resolves a policy spec; "" is no policy.
func parsePolicy(spec string) (smt.Policy, error) {
	if spec == "" {
		return nil, nil
	}
	return smt.ParsePolicy(spec)
}

// directRun runs job straight through mpisim.RunCtx under the options
// and policy, applying the policy's actions through the simulated procfs
// path the way Machine.RunPolicy does.
func directRun(ctx context.Context, job jobSpec, pl smt.Placement, o smt.Options, policy string) (*mpisim.Result, error) {
	sj, err := job.sim()
	if err != nil {
		return nil, err
	}
	pol, err := parsePolicy(policy)
	if err != nil {
		return nil, err
	}
	if o.Topology == (smt.Topology{}) {
		o.Topology = smt.DefaultTopology() // as NewMachine normalizes it
	}
	cfg := simConfig(o)
	if pol != nil {
		run := pol
		if b, ok := pol.(smt.PolicyBinder); ok {
			run = b.Bind(o.Topology, pl)
		}
		cfg.OnIteration = func(ev mpisim.IterationEvent) {
			st := smt.IterationStats{Index: ev.Index, ComputeCycles: ev.ComputeCycles, ArrivalCycle: ev.Arrival, ReleaseCycle: ev.Release}
			for _, act := range run.Observe(st) {
				if act.Rank >= 0 && act.Rank < len(pl.CPU) && act.Priority.Valid() {
					ev.ApplyPriority(act.Rank, hwpri.Priority(act.Priority))
				}
			}
		}
	}
	ipl := mpisim.Placement{CPU: pl.CPU}
	for _, p := range pl.Priority {
		ipl.Prio = append(ipl.Prio, hwpri.Priority(p))
	}
	return mpisim.RunCtx(ctx, sj, ipl, cfg)
}

// probeJob is one job a probe runs on a Machine of its own.
type probeJob struct {
	job    jobSpec
	opts   smt.Options
	policy string
}

// directStats accumulates direct mpisim runs in the order they ran.
type directStats struct {
	ms              []float64
	cycles, skipped []int64
}

func (d *directStats) add(res *mpisim.Result, ms float64) {
	d.ms = append(d.ms, ms)
	d.cycles = append(d.cycles, res.Cycles)
	d.skipped = append(d.skipped, res.SkippedCycles)
}

// report records the mpisim metrics: timings over every run, exact
// counts over the first prefix runs (a fixed set of jobs for the seed).
func (d *directStats) report(rep *report, prefix int) {
	var lockAll float64
	for i := range d.ms {
		lockAll += float64(d.cycles[i] - d.skipped[i])
	}
	rep.add("mpisim.run_ms", d.ms, "direct mpisim.RunCtx")
	if host := sum(d.ms) / 1e3; host > 0 {
		rep.set("mpisim.lockstep_mcycles_per_s", lockAll/host/1e6, len(d.ms),
			"lockstep cycles per host second of direct runs, oskernel ticks included")
	}
	n := min(prefix, len(d.ms))
	var lock, skip int64
	engaged := 0
	for i := range n {
		lock += d.cycles[i] - d.skipped[i]
		skip += d.skipped[i]
		if d.skipped[i] > 0 {
			engaged++
		}
	}
	note := fmt.Sprintf("over the first %d direct runs", n)
	rep.set("mpisim.lockstep_cycles", float64(lock), n, note)
	rep.set("mpisim.skipped_cycles", float64(skip), n, note)
	if lock+skip > 0 {
		rep.set("mpisim.skip_frac", float64(skip)/float64(lock+skip), n, "skipped over total simulated cycles, "+note)
		rep.set("mpisim.skip_engaged_frac", float64(engaged)/float64(n), n, "runs with any skip over all runs, "+note)
	}
}

// probeMachine measures each cache tier of the root Machine by direct
// Machine.Run calls on jobs of a known tier, classified by CacheStats
// deltas: a first run (simulated), a repeat (memory hit), and after
// ClearCache a third run (disk hit).  Each first run is paired with a
// direct mpisim run of the same job; their difference is the Machine's
// own overhead (keying, cloning, trace).  It returns the disk records the
// Machine wrote.
func probeMachine(ctx context.Context, tr *tracer, rep *report, jobs []probeJob, dir string) ([][]byte, error) {
	var miss, hit, disk, overhead []float64
	type entry struct {
		m   *smt.Machine
		job smt.Job
		pl  smt.Placement
		pol smt.Policy
	}
	var entries []entry
	for _, pj := range jobs {
		m, err := smt.NewMachine(&pj.opts)
		if err != nil {
			return nil, err
		}
		if err := m.UseDiskCache(dir); err != nil {
			return nil, err
		}
		pub := pj.job.public()
		pl, err := pj.opts.Topology.PinInOrder(len(pub.Ranks))
		if err != nil {
			return nil, err
		}
		pol, err := parsePolicy(pj.policy)
		if err != nil {
			return nil, err
		}
		entries = append(entries, entry{m, pub, pl, pol})

		for range 2 {
			before := m.CacheStats()
			sp := tr.start("machine.Run", 0)
			res, err := m.RunPolicy(ctx, pub, pl, pol)
			ms := float64(sp.end().Nanoseconds()) / 1e6
			if err != nil {
				return nil, err
			}
			after := m.CacheStats()
			switch {
			case after.Hits > before.Hits:
				hit = append(hit, ms*1e3)
			case after.DiskHits > before.DiskHits:
				disk = append(disk, ms*1e3)
			case after.Misses > before.Misses:
				miss = append(miss, ms)
				sp := tr.start("mpisim.RunCtx", 0)
				dres, err := directRun(ctx, pj.job, pl, pj.opts, pj.policy)
				dms := float64(sp.end().Nanoseconds()) / 1e6
				if err != nil {
					return nil, err
				}
				if dres.Cycles != res.Cycles {
					rep.fail("direct mpisim run of %s gave %d cycles, Machine.Run %d", pj.job.Name, dres.Cycles, res.Cycles)
				}
				overhead = append(overhead, ms-dms)
			}
		}
	}
	for _, e := range entries {
		e.m.ClearCache()
		before := e.m.CacheStats()
		sp := tr.start("machine.Run", 0)
		_, err := e.m.RunPolicy(ctx, e.job, e.pl, e.pol)
		us := float64(sp.end().Nanoseconds()) / 1e3
		if err != nil {
			return nil, err
		}
		if e.m.CacheStats().DiskHits > before.DiskHits {
			disk = append(disk, us)
		}
	}
	rep.add("machine.miss_ms", miss, "first Machine.Run of a probe job: simulated")
	rep.add("machine.hit_us", hit, "repeat Machine.Run: memory tier")
	rep.add("machine.disk_hit_us", disk, "Machine.Run after ClearCache: disk tier")
	rep.add("machine.overhead_ms", overhead, "Machine.Run miss minus direct mpisim.RunCtx on the same job")
	return readRecords(dir)
}

// readRecords returns every record file under dir.
func readRecords(dir string) ([][]byte, error) {
	var out [][]byte
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, ".json") {
			return err
		}
		b, err := os.ReadFile(p)
		out = append(out, b)
		return err
	})
	return out, err
}

// probeDiskcache times direct Store.Put and Store.Get calls on the given
// records under fresh keys.
func probeDiskcache(tr *tracer, rep *report, records [][]byte, dir string) error {
	if len(records) == 0 {
		return fmt.Errorf("diskcache probe: no records to store")
	}
	st, err := diskcache.Open(dir, "probe")
	if err != nil {
		return err
	}
	const n = 200
	var put, get, size []float64
	key := func(i int) string { return fmt.Sprintf("%x-run", sha256.Sum256([]byte{byte(i), byte(i >> 8)})) }
	for i := range n {
		rec := records[i%len(records)]
		sp := tr.start("diskcache.Put", 0)
		err := st.Put(key(i), rec)
		put = append(put, float64(sp.end().Nanoseconds())/1e3)
		if err != nil {
			return err
		}
		size = append(size, float64(len(rec)))
	}
	for i := range n {
		sp := tr.start("diskcache.Get", 0)
		b, ok, err := st.Get(key(i))
		get = append(get, float64(sp.end().Nanoseconds())/1e3)
		if err != nil {
			return err
		}
		if !ok || string(b) != string(records[i%len(records)]) {
			rep.fail("diskcache: record %d did not read back", i)
		}
	}
	rep.add("diskcache.put_us", put, "")
	rep.add("diskcache.get_us", get, "")
	rep.set("diskcache.record_bytes", mean(size), len(size), "mean record size")
	return nil
}

// hwpriSink keeps the compiler from dropping the probed calls.
var hwpriSink int

// probeHwpri times hwpri.Alloc over the priority pairs the workloads
// use (1..6 on each side), in spans of a fixed batch of calls.
func probeHwpri(tr *tracer, rep *report) {
	var pairs [][2]hwpri.Priority
	for a := hwpri.Priority(1); a <= 6; a++ {
		for b := hwpri.Priority(1); b <= 6; b++ {
			pairs = append(pairs, [2]hwpri.Priority{a, b})
		}
	}
	const batch = 1 << 16
	var ns []float64
	for range 31 {
		sp := tr.start("hwpri.Alloc", 0)
		for i := range batch {
			p := pairs[i%len(pairs)]
			hwpriSink += hwpri.Alloc(p[0], p[1]).Period
		}
		ns = append(ns, float64(sp.end().Nanoseconds())/batch)
	}
	rep.add("hwpri.alloc_ns", ns, fmt.Sprintf("per call, %d spans of %d calls", len(ns), batch))
}

// probePower5 runs a fully loaded chip on two kernel mixes: the compute
// mix sweep-phaseskip uses and a memory mix.  Host ns per cycle comes
// from many spans of Chip.Run, not one; IPC is an exact simulated count.
func probePower5(tr *tracer, rep *report) error {
	mixes := []struct {
		name  string
		kinds [4]workload.Kind
	}{
		{"compute", [4]workload.Kind{workload.FPU, workload.FXU, workload.L1, workload.L2}},
		{"memory", [4]workload.Kind{workload.Mem, workload.L2, workload.Mem, workload.L2}},
	}
	const warm, chunk, samples = 20_000, 5_000, 41
	worstAllocs := 0.0
	for _, mix := range mixes {
		ch, err := power5.New(power5.DefaultConfig())
		if err != nil {
			return err
		}
		for i, k := range mix.kinds {
			ch.SetStream(i/2, i%2, workload.Load{Kind: k, N: 1 << 62, Seed: uint64(i + 1), Base: uint64(i) << 32}.Stream())
		}
		ch.Run(warm)
		var ns []float64
		for range samples {
			sp := tr.start("power5.Chip.Run", 0)
			ch.Run(chunk)
			ns = append(ns, float64(sp.end().Nanoseconds())/chunk)
		}
		// Allocations are counted over an unspanned stretch: recording a
		// span allocates.
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		ch.Run(samples * chunk)
		runtime.ReadMemStats(&ms1)
		worstAllocs = max(worstAllocs, float64(ms1.Mallocs-ms0.Mallocs)/float64(samples*chunk))
		var completed int64
		for i := range 4 {
			completed += ch.Stats(i/2, i%2).Completed
		}
		cycles := ch.Cycle()
		rep.add("power5.cycle_ns."+mix.name, ns, fmt.Sprintf("%d spans of %d cycles", samples, chunk))
		rep.set("power5.ipc."+mix.name, float64(completed)/float64(cycles), int(cycles), "instructions per cycle, whole chip")
	}
	rep.set("power5.allocs_per_cycle", worstAllocs, samples*chunk, "worst mix; must stay 0")
	return nil
}

// probeLayers runs the workload-independent probes of a traced run.
func probeLayers(ctx context.Context, cfg config, rep *report, jobs []probeJob) error {
	if err := probeServe(ctx, cfg, rep, filepath.Join(cfg.out, "probe-serve")); err != nil {
		return err
	}
	probeHwpri(cfg.tr, rep)
	if err := probePower5(cfg.tr, rep); err != nil {
		return err
	}
	records, err := probeMachine(ctx, cfg.tr, rep, jobs, filepath.Join(cfg.out, "probe-machine"))
	if err != nil {
		return err
	}
	return probeDiskcache(cfg.tr, rep, records, filepath.Join(cfg.out, "probe-diskcache"))
}
