package smtbalance

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

// sweepTestJob is a small imbalanced job: ranks 1 and 3 are heavy.
func sweepTestJob(light, heavy int64) Job {
	return Job{Name: "sweep", Ranks: [][]Phase{
		{Compute("fpu", light), Barrier()},
		{Compute("fpu", heavy), Barrier()},
		{Compute("fpu", light), Barrier()},
		{Compute("fpu", heavy), Barrier()},
	}}
}

func TestSweepPublicDeterminism(t *testing.T) {
	job := sweepTestJob(3000, 12000)
	space := Space{Priorities: []Priority{PriorityMedium, PriorityHigh}}
	serial, err := sweepWith(nil, job, space, &SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := sweepWith(nil, job, space, &SweepOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Entries, parallel.Entries) {
		t.Fatal("workers=1 and workers=8 rankings differ")
	}
	if serial.Evaluated != 48 { // 3 pairings x 2^4
		t.Errorf("evaluated %d configurations, want 48", serial.Evaluated)
	}
}

func TestSweepFixPairing(t *testing.T) {
	job := sweepTestJob(2000, 8000)
	res, err := sweepWith(nil, job, Space{FixPairing: true,
		Priorities: []Priority{PriorityMedium, PriorityHigh}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != 16 {
		t.Errorf("fixed-pairing space evaluated %d, want 16", res.Evaluated)
	}
	for _, e := range res.Entries {
		if !reflect.DeepEqual(e.Placement.CPU, []int{0, 1, 2, 3}) {
			t.Fatalf("FixPairing leaked pairing %v", e.Placement.CPU)
		}
	}
}

func TestSweepBeatsDefaultPlacement(t *testing.T) {
	job := sweepTestJob(3000, 12000)
	base, err := runWith(job, PinInOrder(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sweepWith(nil, job, UserSettableSpace(), &SweepOptions{Top: 3})
	if err != nil {
		t.Fatal(err)
	}
	best, err := res.Best()
	if err != nil {
		t.Fatal(err)
	}
	if best.Cycles >= base.Cycles {
		t.Errorf("sweep best (%d cycles) no faster than default placement (%d cycles)",
			best.Cycles, base.Cycles)
	}
	if len(res.Entries) != 3 {
		t.Errorf("Top=3 kept %d entries", len(res.Entries))
	}
}

func TestSweepObjectives(t *testing.T) {
	job := sweepTestJob(2000, 8000)
	space := Space{FixPairing: true, Priorities: []Priority{PriorityMedium, PriorityHigh}}
	byImb, err := sweepWith(nil, job, space, &SweepOptions{Objective: MinimizeImbalance()})
	if err != nil {
		t.Fatal(err)
	}
	byCyc, err := sweepWith(nil, job, space, &SweepOptions{Objective: MinimizeCycles()})
	if err != nil {
		t.Fatal(err)
	}
	bi, _ := byImb.Best()
	bc, _ := byCyc.Best()
	if bi.ImbalancePct > bc.ImbalancePct {
		t.Errorf("imbalance objective winner (%.2f%%) worse balanced than cycles winner (%.2f%%)",
			bi.ImbalancePct, bc.ImbalancePct)
	}
	w := WeightedObjective(1, 0.5)
	if w.CyclesWeight != 1 || w.ImbalanceWeight != 0.5 {
		t.Errorf("WeightedObjective = %+v", w)
	}
}

func TestSweepRejectsDynamicOptions(t *testing.T) {
	job := sweepTestJob(1000, 2000)
	if _, err := sweepWith(&Options{OnIteration: func(IterationStats) {}}, job, Space{}, nil); err == nil {
		t.Error("OnIteration accepted in a sweep")
	}
	if _, err := sweepWith(nil, job, Space{Priorities: []Priority{Priority(9)}}, nil); err == nil {
		t.Error("invalid priority accepted in a space")
	}
	odd := Job{Ranks: job.Ranks[:3]}
	if _, err := sweepWith(nil, odd, Space{}, nil); err == nil {
		t.Error("odd rank count accepted")
	}
}

func TestSweepFailedRunsErrorRegardlessOfTop(t *testing.T) {
	job := sweepTestJob(2000, 8000)
	space := Space{FixPairing: true, Priorities: []Priority{PriorityMedium, PriorityHigh}}
	// A 1-cycle budget starves every configuration; the sweep must
	// report that whether or not truncation would hide the failures.
	for _, top := range []int{0, 2} {
		_, err := sweepWith(&Options{MaxCycles: 1}, job, space, &SweepOptions{Top: top})
		if err == nil {
			t.Errorf("Top=%d: sweep with failing runs returned no error", top)
		} else if !strings.Contains(err.Error(), "16 of 16") {
			t.Errorf("Top=%d: error does not report the failure count: %v", top, err)
		}
	}
}

func TestSweepWriteCSV(t *testing.T) {
	job := sweepTestJob(1500, 6000)
	res, err := sweepWith(nil, job, Space{FixPairing: true,
		Priorities: []Priority{PriorityMedium, PriorityHigh}}, &SweepOptions{Top: 4})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := res.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("CSV has %d lines, want header + 4 rows:\n%s", len(lines), b.String())
	}
	if !strings.HasPrefix(lines[0], "rank,cpus,priorities,") {
		t.Errorf("missing header: %s", lines[0])
	}
	if !strings.HasPrefix(lines[1], "1,") {
		t.Errorf("first data row not rank 1: %s", lines[1])
	}
}

func TestOptimizePlacement(t *testing.T) {
	job := sweepTestJob(1500, 6000)
	base, err := runWith(job, PinInOrder(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(nil)
	if err != nil {
		t.Fatal(err)
	}
	pl, res, err := m.Optimize(context.Background(), job, MinimizeCycles())
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.CPU) != 4 || len(pl.Priority) != 4 {
		t.Fatalf("placement shape wrong: %+v", pl)
	}
	if res.Cycles >= base.Cycles {
		t.Errorf("optimized placement (%d cycles) no faster than default (%d cycles)",
			res.Cycles, base.Cycles)
	}
	// The result must be the winner's actual run, not an estimate.
	rerun, err := runWith(job, pl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rerun.Cycles != res.Cycles {
		t.Errorf("returned Result (%d cycles) does not match its placement's run (%d cycles)",
			res.Cycles, rerun.Cycles)
	}
}

// TestOptimizePlacementThreadsOptions is the regression test for the
// options-dropping bug: optimization used to re-run the winning
// placement with nil options, so a sweep over a non-default
// Options.Topology re-ran its winner on the 1×2×2 default machine —
// failing outright when the winner used a CPU past 3, silently
// mismatching otherwise.  The sweep's whole environment (topology and
// noise settings here) must carry into the winner's re-run.
func TestOptimizePlacementThreadsOptions(t *testing.T) {
	topo := Topology{Chips: 2, CoresPerChip: 2, SMTWays: 2}
	opts := &Options{Topology: topo, NoOSNoise: true}
	job := sweepTestJob(200, 800)
	m, err := NewMachine(opts)
	if err != nil {
		t.Fatal(err)
	}
	pl, res, err := m.Optimize(context.Background(), job, MinimizeCycles())
	if err != nil {
		t.Fatal(err)
	}
	for r, cpu := range pl.CPU {
		if cpu < 0 || cpu >= topo.Contexts() {
			t.Fatalf("winner pins rank %d to CPU %d outside the %s topology", r, cpu, topo)
		}
	}
	// The returned Result must be the winner's run under the sweep's own
	// environment: re-running it there reproduces it exactly.
	rerun, err := runWith(job, pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rerun.Cycles != res.Cycles {
		t.Errorf("Optimize Result (%d cycles) does not match the winner's run on its own machine (%d cycles)",
			res.Cycles, rerun.Cycles)
	}
	for i, rr := range res.Ranks {
		wantChip := pl.CPU[i] / (topo.CoresPerChip * topo.SMTWays)
		if rr.Chip != wantChip {
			t.Errorf("rank %d reports chip %d, want %d — result not from the 2-chip machine", i, rr.Chip, wantChip)
		}
	}
	if _, _, err := m.Optimize(context.Background(), job, MinimizeCycles(), nil, nil); err == nil {
		t.Error("Optimize accepted two SweepOptions arguments")
	}
}

// TestSweepValidatesRankCountUpFront pins the up-front validation: every
// sweep path — fixed pairing or not, wrapper or Machine — must reject a
// bad rank count with the same descriptive smtbalance error style as
// Placement.validate, instead of a deep enumerator failure.
func TestSweepValidatesRankCountUpFront(t *testing.T) {
	odd := Job{Name: "odd", Ranks: sweepTestJob(1000, 2000).Ranks[:3]}
	for _, space := range []Space{{}, {FixPairing: true}} {
		_, err := sweepWith(nil, odd, space, nil)
		if err == nil {
			t.Fatalf("odd rank count accepted (FixPairing=%v)", space.FixPairing)
		}
		if !strings.HasPrefix(err.Error(), "smtbalance:") || !strings.Contains(err.Error(), "even rank count") {
			t.Errorf("odd-count error not descriptive (FixPairing=%v): %v", space.FixPairing, err)
		}
	}

	six := sweepTestJob(1000, 2000)
	six.Ranks = append(six.Ranks, six.Ranks[0], six.Ranks[1])
	for _, space := range []Space{{}, {FixPairing: true}} {
		_, err := sweepWith(nil, six, space, nil)
		if err == nil {
			t.Fatalf("6 ranks on the 4-context default accepted (FixPairing=%v)", space.FixPairing)
		}
		msg := err.Error()
		if !strings.HasPrefix(msg, "smtbalance:") || !strings.Contains(msg, "1x2x2") ||
			!strings.Contains(msg, "4 hardware contexts") || !strings.Contains(msg, "grow Options.Topology") {
			t.Errorf("oversized-job error not descriptive (FixPairing=%v): %v", space.FixPairing, err)
		}
	}

	if _, err := sweepWith(nil, Job{Name: "empty"}, Space{}, nil); err == nil ||
		!strings.Contains(err.Error(), "no ranks") {
		t.Errorf("empty job error not descriptive: %v", err)
	}

	// The same validation guards the Machine path.
	m, err := NewMachine(&Options{Topology: Topology{Chips: 2, CoresPerChip: 2, SMTWays: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.SweepAll(context.Background(), odd, Space{}, nil); err == nil ||
		!strings.Contains(err.Error(), "even rank count") {
		t.Errorf("Machine.SweepAll odd-count error: %v", err)
	}
	// 6 ranks fit a 2-chip machine: the same job that fails above must
	// enumerate here... except 6 ranks = 3 pairs on 4 cores, which is
	// valid, so only check it gets past the rank-count validation.
	if _, err := m.SweepAll(context.Background(), six, Space{FixPairing: true,
		Priorities: []Priority{PriorityMedium}}, nil); err != nil {
		t.Errorf("6 ranks rejected on an 8-context machine: %v", err)
	}
}
