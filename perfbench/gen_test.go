package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"
)

// inputs renders every generated input of every workload for seed.
func inputs(t *testing.T, seed uint64) []byte {
	t.Helper()
	all := map[string]any{
		"lockstep": lockOps(seed, 3*len(lockDeck)),
		"sweep":    []jobSpec{sweepJob(seed, 0), sweepJob(seed, 1)},
		"serve":    serveKeys(seed, 0, 50),
	}
	b, err := json.Marshal(all)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestGeneratorsAreSeeded(t *testing.T) {
	a, b := inputs(t, 1), inputs(t, 1)
	if !bytes.Equal(a, b) {
		t.Fatal("seed 1 generated two different op sequences")
	}
	if bytes.Equal(a, inputs(t, 2)) {
		t.Fatal("seeds 1 and 2 generated the same op sequence")
	}
}

func TestOpsHaveDistinctKeys(t *testing.T) {
	seen := map[string]bool{}
	distinct := func(what string, job jobSpec, policy string) {
		job.Name = "" // not part of a cache key
		b, err := json.Marshal(struct {
			Job    jobSpec
			Policy string
		}{job, policy})
		if err != nil {
			t.Fatal(err)
		}
		if seen[string(b)] {
			t.Fatalf("%s repeats an earlier job", what)
		}
		seen[string(b)] = true
	}
	for i, op := range lockOps(7, 4*len(lockDeck)) {
		distinct(fmt.Sprintf("lockstep op %d", i), op.Job, op.Policy+op.Topo.String())
	}
	for i, k := range serveKeys(7, 0, 2000) {
		distinct(fmt.Sprintf("serve key %d", i), k.Job, k.Policy)
	}
}

func TestPercentile(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{4, 1, 3, 2}, 50, 2.5},
		{[]float64{4, 1, 3, 2}, 25, 1.75},
		{[]float64{4, 1, 3, 2}, 75, 3.25},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 90, 9.1},
		{[]float64{5}, 90, 5},
		{[]float64{1, 2}, 100, 2},
	} {
		if got := percentile(c.xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of an empty sample is not NaN")
	}
	s := summarize([]float64{1, 2, 3, 4, 5})
	if s.Q1 != 2 || s.Median != 3 || s.Q3 != 4 || s.N != 5 {
		t.Errorf("summarize = %+v", s)
	}
}

func TestSelfTimes(t *testing.T) {
	// A 0–100 parent with children 10–30 and 20–50 (overlapping) and
	// 90–120 (past its end): the children cover 10–50 and 90–100.
	spans := []spanRecord{
		{Name: "serve.client", ID: 1, Start: 0, End: 100},
		{Name: "serve.handler", ID: 2, Parent: 1, Start: 10, End: 30},
		{Name: "serve.handler", ID: 3, Parent: 1, Start: 20, End: 50},
		{Name: "machine.Run", ID: 4, Parent: 1, Start: 90, End: 120},
	}
	got := selfTimes(spans)
	if got["serve"] != 50+20+30 || got["machine"] != 30 {
		t.Errorf("selfTimes = %v", got)
	}
}
