package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	smtbalance "repro"
	"repro/internal/metrics"
)

// matrixUsage documents the matrix subcommand.
const matrixUsage = `usage: mtbalance matrix [flags]

Evaluate every balancing policy on every imbalance scenario on every
topology and print the policy x scenario evaluation matrix.  Each cell
pins the scenario's job in order at medium priority — the pure policy
comparison, where only online balancing differentiates rows — and
scores every policy by its speedup over the static (no-balancing)
control, so scores are comparable across cells.

Scenario specifications use the ParseScenario grammar
(name[,key=value]...), ';'-separated; likewise policies (ParsePolicy)
and topologies (chips x cores x smt), e.g.

    mtbalance matrix -scenarios 'uniform;ramp;bursty' \
        -policies 'static;dyn;feedback'
    mtbalance matrix -topologies '1x2x2;2x2x2' -format csv
    mtbalance matrix -preset small -format csv   # CI smoke preset

The output is deterministic: the same flags produce byte-identical
output whatever -workers is.

`

// Matrix presets: the default evaluation (the golden snapshot) and a
// small one for CI smokes.
var matrixPresets = map[string]struct{ scenarios, policies, topologies string }{
	"default": {
		scenarios:  "uniform;ramp;step;bursty",
		policies:   "static;dyn;hier;feedback",
		topologies: "1x2x2",
	},
	"small": {
		scenarios:  "uniform,base=6000,iters=3;ramp,base=6000,iters=3",
		policies:   "static;dyn",
		topologies: "1x2x2",
	},
}

// runMatrix implements `mtbalance matrix`.
func runMatrix(args []string) int {
	return matrixMain(args, os.Stdout, os.Stderr)
}

// matrixMain is runMatrix with injectable streams, so the golden and
// determinism tests drive the exact code path the CLI runs.
func matrixMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("matrix", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		preset     = fs.String("preset", "default", "flag preset: default or small (explicit flags override)")
		scenarios  = fs.String("scenarios", "", "';'-separated scenario specifications ("+strings.Join(smtbalance.Scenarios(), ", ")+")")
		policies   = fs.String("policies", "", "';'-separated balancing policies ("+strings.Join(smtbalance.Policies(), ", ")+")")
		topologies = fs.String("topologies", "", "';'-separated machine topologies, e.g. '1x2x2;2x2x2'")
		workers    = fs.Int("workers", 0, "concurrent simulator runs per cell (0 = one per CPU, 1 = serial)")
		format     = fs.String("format", "table", "output format: table or csv")
		progress   = fs.Bool("progress", false, "report cell progress on stderr")
	)
	fs.Usage = func() {
		fmt.Fprint(stderr, matrixUsage)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	pre, ok := matrixPresets[*preset]
	if !ok {
		fmt.Fprintf(stderr, "unknown -preset %q (want default or small)\n", *preset)
		return 2
	}
	if *scenarios == "" {
		*scenarios = pre.scenarios
	}
	if *policies == "" {
		*policies = pre.policies
	}
	if *topologies == "" {
		*topologies = pre.topologies
	}
	if *format != "table" && *format != "csv" {
		fmt.Fprintf(stderr, "unknown -format %q (want table or csv)\n", *format)
		return 2
	}

	var spec smtbalance.MatrixSpec
	for _, s := range splitList(*scenarios) {
		sc, err := smtbalance.ParseScenario(s)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		spec.Scenarios = append(spec.Scenarios, sc)
	}
	for _, s := range splitList(*policies) {
		pol, err := smtbalance.ParsePolicy(s)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		spec.Policies = append(spec.Policies, pol)
	}
	for _, s := range splitList(*topologies) {
		topo, err := smtbalance.ParseTopology(s)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		spec.Topologies = append(spec.Topologies, topo)
	}

	opts := &smtbalance.MatrixOptions{Workers: *workers}
	if *progress {
		opts.Progress = func(done, total int) {
			fmt.Fprintf(stderr, "matrix: %d/%d cells\n", done, total)
		}
	}
	res, err := smtbalance.EvalMatrixAll(context.Background(), spec, opts)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	if *format == "csv" {
		if err := res.WriteCSV(stdout); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	title := fmt.Sprintf("Evaluation matrix — %d cells, %d entries (speedup vs static control)",
		res.Cells, len(res.Entries))
	tb := metrics.NewTable(title, "Topology", "Scenario", "Policy", "Cycles", "Exec", "Imb%", "Speedup")
	for _, e := range res.Entries {
		tb.AddRow(e.Topology, shortScenario(e.Scenario), e.Policy,
			fmt.Sprint(e.Cycles), metrics.Seconds(e.Seconds),
			fmt.Sprintf("%.2f", e.ImbalancePct), fmt.Sprintf("%.4f", e.Speedup))
	}
	fmt.Fprintln(stdout, tb.String())
	for _, line := range matrixBests(res) {
		fmt.Fprintln(stdout, line)
	}
	return 0
}

// splitList splits a ';'-separated flag value, dropping empty fields.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ";") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// shortScenario compresses a ScenarioID for the table: parameters that
// sit at their defaults add no information, so only the shape name and
// any non-default parameters print.  The CSV keeps the full identity.
func shortScenario(id string) string {
	open := strings.IndexByte(id, '(')
	if open < 0 || !strings.HasSuffix(id, ")") {
		return id
	}
	name := id[:open]
	var kept []string
	for _, kv := range strings.Split(id[open+1:len(id)-1], ",") {
		switch kv {
		case "ranks=0", "iters=5", "base=20000", "kind=fpu",
			"skew=4", "amp=3", "seed=1", "period=2", "outlier=0", "kind2=mem":
			continue
		}
		kept = append(kept, kv)
	}
	if len(kept) == 0 {
		return name
	}
	return name + "(" + strings.Join(kept, ",") + ")"
}

// matrixBests renders a best-policy line per cell, in cell order.
func matrixBests(res *smtbalance.MatrixResult) []string {
	var lines []string
	type cell struct{ topo, scenario string }
	best := make(map[cell]smtbalance.MatrixEntry)
	var order []cell
	for _, e := range res.Entries {
		c := cell{e.Topology, e.Scenario}
		b, seen := best[c]
		if !seen {
			order = append(order, c)
		}
		if !seen || e.Speedup > b.Speedup {
			best[c] = e
		}
	}
	for _, c := range order {
		b := best[c]
		lines = append(lines, fmt.Sprintf("best for %s on %s: %s (speedup %.4f)",
			shortScenario(c.scenario), c.topo, b.Policy, b.Speedup))
	}
	return lines
}
