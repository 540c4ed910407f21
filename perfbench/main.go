// Command perfbench is the repository's benchmark: one command that runs
// a seeded workload against the public functions of the layers in
// ARCHITECTURE.md, checks every output, and prints every metric by
// name with its unit, median, quartiles and sample count.
//
//	bash perfbench/run.sh --workload run-lockstep --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// runs the same workload with spans around every call into a layer and
// derives the per-layer metrics from them.  End-to-end times are scaled
// to a nominal host, so that a shared host's drifting speed does not
// move them (hostspeed.go).  The last line of standard output is a JSON
// object {correct, attempted, failed, metrics}.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// endToEnd and perLayer are the metrics BENCHMARK.json lists, with
// their units; a run with --trace 0 reports exactly endToEnd, a run with
// --trace 1 exactly perLayer.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"op_p50_ms", "ms"}, {"op_p90_ms", "ms"},
	{"sim_mcycles_per_s", "Mcycles/s"}, {"throughput_per_s", "1/s"}, {"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"hwpri.alloc_ns", "ns"},
	{"power5.cycle_ns.compute", "ns"}, {"power5.cycle_ns.memory", "ns"}, {"power5.allocs_per_cycle", "count"},
	{"power5.ipc.compute", "ratio"}, {"power5.ipc.memory", "ratio"},
	{"mpisim.run_ms", "ms"}, {"mpisim.lockstep_cycles", "count"}, {"mpisim.skipped_cycles", "count"},
	{"mpisim.skip_frac", "ratio"}, {"mpisim.skip_engaged_frac", "ratio"}, {"mpisim.lockstep_mcycles_per_s", "Mcycles/s"},
	{"machine.miss_ms", "ms"}, {"machine.hit_us", "us"}, {"machine.disk_hit_us", "us"},
	{"machine.hits", "count"}, {"machine.misses", "count"}, {"machine.coalesced", "count"},
	{"machine.disk_hits", "count"}, {"machine.disk_writes", "count"},
	{"machine.sim_frac", "ratio"}, {"machine.overhead_ms", "ms"},
	{"diskcache.get_us", "us"}, {"diskcache.put_us", "us"}, {"diskcache.record_bytes", "bytes"},
	{"sweep.points_evaluated", "count"}, {"sweep.points_screened", "count"}, {"sweep.parallel_speedup", "ratio"},
	{"core.predict_ns", "ns"}, {"core.screen_ms", "ms"}, {"core.winner_kept", "ratio"},
	{"serve.handler_ms.p50", "ms"}, {"serve.handler_ms.p90", "ms"}, {"serve.wait_ms.p90", "ms"},
	{"serve.resp_bytes", "bytes"}, {"serve.shed", "count"},
	{"runtime.alloc_bytes_per_op", "bytes"}, {"runtime.gc_cycles", "count"},
	{"trace.overhead_pct", "%"}, {"sim.digest48", "hash48"},
}

type metricDef struct{ name, unit string }

// unitOf returns a metric's unit; an unlisted name is a bug.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("perfbench: unlisted metric " + name)
}

// config is what every workload receives.
type config struct {
	seed    uint64
	seconds time.Duration
	tr      *tracer // nil unless --trace 1
	out     string  // scratch directory inside the checkout
	workers int     // nproc: pool sizes and connection counts
	commit  string
}

// workloads maps --workload names to the functions that run them.
var workloads = map[string]func(ctx context.Context, cfg config, rep *report) error{
	"run-lockstep":    runLockstep,
	"sweep-phaseskip": runSweepPhaseSkip,
}

// Each workload builds its state minSetups to maxSetups times, until
// the set-ups add up to setupFloor; setup_s is their median, so one slow
// set-up does not move it.
const (
	minSetups, maxSetups = 5, 100
	setupFloor           = 3 * time.Second
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "run-lockstep", "workload: run-lockstep or sweep-phaseskip")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 30, "length of the timed window in seconds")
	traced := fs.Int("trace", 0, "0 measures the end-to-end metrics, 1 the per-layer metrics from a traced run")
	out := fs.String("out", ".bench_build", "directory for scratch files, spans and the ledger")
	commit := fs.String("commit", "unknown", "commit the program was built from, for the ledger")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		return 2
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, workers: runtime.NumCPU(), commit: *commit}
	if *traced == 1 {
		cfg.tr = newTracer()
	}
	cfg.out = filepath.Join(*out, fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid()))
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(cfg.out)

	// Every workload finishes well inside this; hitting it is a failure.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	rep := newReport(*name, cfg)
	if err := w(ctx, cfg, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if cfg.tr != nil {
		spans := cfg.tr.records()
		printSelfTimes(stdout, spans)
		if err := writeFile(filepath.Join(*out, fmt.Sprintf("spans-%s-%d.jsonl", *name, *seed)), cfg.tr.writeJSONL); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	want := endToEnd
	if cfg.tr != nil {
		want = perLayer
	}
	res, err := rep.finish(stdout, want)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := writeFile(filepath.Join(*out, fmt.Sprintf("ledger-%s-%d-trace%d.json", *name, *seed, *traced)), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		return enc.Encode(rep.ledger())
	}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func writeFile(path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// metric is one ledger row: the reported value plus the sample it came
// from.  Counts and single figures have N = 1 and equal quartiles.
type metric struct {
	Layer  string  `json:"layer"`
	Case   string  `json:"case"`
	Name   string  `json:"metric"`
	Unit   string  `json:"unit"`
	Value  float64 `json:"value"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"samples"`
	Note   string  `json:"note,omitempty"`
}

// report collects one run's metrics, failures and simulation digest.
type report struct {
	workload  string
	cfg       config
	attempted int
	failed    int
	metrics   map[string]metric
	digest    hash.Hash
	digestOps int
	notes     []string // extra lines for the human-readable output
}

func newReport(workload string, cfg config) *report {
	return &report{workload: workload, cfg: cfg, metrics: map[string]metric{}, digest: sha256.New()}
}

// add records a metric whose value is the median of xs.
func (r *report) add(name string, xs []float64, note string) {
	s := summarize(xs)
	r.record(name, s.Median, s, note)
}

// set records a single figure: a count, a ratio, or a value derived
// from a sample of n.
func (r *report) set(name string, v float64, n int, note string) {
	r.record(name, v, summary{Median: v, Q1: v, Q3: v, N: n}, note)
}

func (r *report) record(name string, v float64, s summary, note string) {
	layer := layerOf(name)
	if !strings.Contains(name, ".") {
		layer = "end_to_end"
	}
	r.metrics[name] = metric{Layer: layer, Case: r.workload, Name: name, Unit: unitOf(name), Value: v,
		Median: s.Median, Q1: s.Q1, Q3: s.Q3, N: s.N, Note: note}
}

// fail counts one failed op and says why on stderr.
func (r *report) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
}

// hashStat feeds simulated statistics into sim_digest, in op order.
func (r *report) hashStat(vals ...any) {
	fmt.Fprintln(r.digest, vals...)
}

func (r *report) simDigest() string { return fmt.Sprintf("%x", r.digest.Sum(nil)) }

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish fills the run-wide metrics, prints every metric of want as a
// table and returns the result object.  A layer metric the workload does
// not exercise reads 0 with zero samples.
func (r *report) finish(w io.Writer, want []metricDef) (result, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return result{}, fmt.Errorf("getrusage: %w", err)
	}
	r.set("peak_rss_mb", float64(ru.Maxrss)/1024, 1, "getrusage max RSS at the end of the run")
	digest := r.digest.Sum(nil)
	r.set("sim.digest48", float64(binary.BigEndian.Uint64(digest[:8])>>16), r.digestOps,
		"top 48 bits of sim_digest")
	if r.cfg.tr != nil {
		for _, d := range perLayer {
			if _, ok := r.metrics[d.name]; !ok {
				r.set(d.name, 0, 0, "not exercised by "+r.workload)
			}
		}
	}

	meta := r.meta()
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%d trace=%v commit=%s go=%s gomaxprocs=%d nproc=%d\n",
		r.workload, r.cfg.seed, int(r.cfg.seconds/time.Second), r.cfg.tr != nil, meta["commit"], meta["go"],
		runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Fprintf(w, "# sim_digest=%s (first %d ops)\n", r.simDigest(), r.digestOps)
	fail := 0.0
	if r.attempted > 0 {
		fail = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "# fail_frac=%.4f ratio (failed %d of %d attempted)\n", fail, r.failed, r.attempted)
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %-28s %16s %-10s %14s %14s %14s %7s\n", "metric", "value", "unit", "q1", "median", "q3", "n")
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(w, "# %-28s %16.6g %-10s %14.6g %14.6g %14.6g %7d  %s\n", n, m.Value, m.Unit, m.Q1, m.Median, m.Q3, m.N, m.Note)
	}
	res := result{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]resultValue{}}
	for _, d := range want {
		m, ok := r.metrics[d.name]
		if !ok {
			return result{}, fmt.Errorf("workload %s did not measure %s", r.workload, d.name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return result{}, fmt.Errorf("workload %s measured %s = %v", r.workload, d.name, m.Value)
		}
		res.Metrics[d.name] = resultValue{Value: m.Value, Unit: m.Unit}
	}
	if res.Attempted == 0 {
		return result{}, fmt.Errorf("workload %s attempted no operation", r.workload)
	}
	return res, nil
}

// meta is the ledger header: what a number needs to be compared.
func (r *report) meta() map[string]any {
	return map[string]any{
		"workload": r.workload, "seed": r.cfg.seed, "seconds": int(r.cfg.seconds / time.Second),
		"trace": r.cfg.tr != nil, "commit": r.cfg.commit, "go": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"sim_digest": r.simDigest(), "attempted": r.attempted, "failed": r.failed,
	}
}

func (r *report) ledger() map[string]any {
	rows := make([]metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		rows = append(rows, m)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	out := r.meta()
	out["rows"] = rows
	return out
}

// runtimeCounters reads the allocation and GC totals the runtime keeps.
func runtimeCounters() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// addRuntime records the runtime's allocation and GC counts over a
// window of ops operations, given the counters read at its start.
func (r *report) addRuntime(alloc0, gc0 uint64, ops int) {
	alloc1, gc1 := runtimeCounters()
	if ops > 0 {
		r.set("runtime.alloc_bytes_per_op", float64(alloc1-alloc0)/float64(ops), ops, "")
	}
	r.set("runtime.gc_cycles", float64(gc1-gc0), 1, "over the timed window")
}
