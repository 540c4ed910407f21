package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/loadtest"
)

// loadtestUsage documents the loadtest subcommand.
const loadtestUsage = `usage: mtbalance loadtest -url http://host:port [flags]

Drive a running mtbalance serve instance with a closed-loop worker
fleet and report throughput, a latency distribution, how many requests
admission control shed, and how much of the load the server's cache
tiers absorbed (memory hits, singleflight coalescing, disk revivals)
instead of simulating.

The workload cycles -distinct job variants across all workers, so a
small -distinct measures the thundering-herd path (many clients, few
configurations) and a large one approaches an all-miss sweep.

Example:

    mtbalance serve -addr localhost:8080 -cache-dir /tmp/mtcache &
    mtbalance loadtest -url http://localhost:8080 -c 16 -duration 10s
    mtbalance loadtest -url http://localhost:8080 -out loadtest.json

`

// runLoadtest implements `mtbalance loadtest`.
func runLoadtest(args []string) int {
	fs := flag.NewFlagSet("loadtest", flag.ExitOnError)
	var (
		url      = fs.String("url", "", "base URL of the server under test (required)")
		conc     = fs.Int("c", 8, "closed-loop worker count")
		duration = fs.Duration("duration", 5*time.Second, "how long to drive load")
		distinct = fs.Int("distinct", 4, "distinct job variants cycled round-robin")
		ranks    = fs.Int("ranks", 4, "ranks per job")
		computeN = fs.Int64("n", 40_000, "base per-phase instruction count")
		out      = fs.String("out", "", "write the JSON report to this file ('-' or empty: stdout)")
	)
	fs.Usage = func() {
		fmt.Fprint(os.Stderr, loadtestUsage)
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if *url == "" {
		fmt.Fprintln(os.Stderr, "loadtest: -url is required")
		fs.Usage()
		return 2
	}

	rep, err := loadtest.Run(context.Background(), loadtest.Config{
		URL:         *url,
		Concurrency: *conc,
		Duration:    *duration,
		Distinct:    *distinct,
		Ranks:       *ranks,
		ComputeN:    *computeN,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	data = append(data, '\n')
	if *out == "" || *out == "-" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "loadtest: %d requests in %.1fs — %d ok (%.0f rps, p50 %.2fms, p99 %.2fms), %d shed, %d errors; cache: %d hits, %d coalesced, %d disk hits\n",
		rep.Requests, rep.DurationSec, rep.OK, rep.ThroughputRPS,
		rep.Latency.P50, rep.Latency.P99, rep.Shed, rep.Errors,
		rep.Cache.Hits, rep.Cache.Coalesced, rep.Cache.DiskHits)
	if rep.Errors > 0 {
		return 1
	}
	return 0
}
