package mpisim_test

// Pins of the phase-skip engine's decisions.  The differential tests
// prove fast runs equal exact runs, which holds whichever anchors the
// engine skips at; these pins hold the decisions themselves — how many
// cycles were skipped — on the paper's Table V BT-MZ job and on three
// jobs shaped like the benchmark sweep's points.  SkippedCycles is
// written into disk-cache records, so a changed decision would also
// change records that older processes wrote and newer ones replay.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/hwpri"
	"repro/internal/mpisim"
	"repro/internal/oskernel"
	"repro/internal/power5"
	"repro/internal/workload"
)

// ringJob is the BT-MZ shape: per iteration, a compute phase of
// loads[r] instructions of kinds[r] and a ring exchange of 16 KiB, then
// one closing barrier.
func ringJob(name string, kinds []workload.Kind, loads []int64, iters int) *mpisim.Job {
	n := len(loads)
	job := &mpisim.Job{Name: name}
	for r := range loads {
		var prog mpisim.Program
		for i := 0; i < iters; i++ {
			prog = append(prog,
				mpisim.Compute(workload.Load{Kind: kinds[r], N: loads[r]}),
				mpisim.Exchange(16<<10, (r+1)%n, (r+n-1)%n))
		}
		prog = append(prog, mpisim.Barrier())
		job.Ranks = append(job.Ranks, prog)
	}
	return job
}

// resultDigest hashes everything a run reports, trace CSV included.
func resultDigest(t *testing.T, res *mpisim.Result) string {
	t.Helper()
	var b bytes.Buffer
	fmt.Fprintf(&b, "%d %v %v %d %+v\n", res.Cycles, res.Seconds, res.Imbalance, res.Iterations, res.Ranks)
	if err := res.Trace.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:8])
}

func prios(ps ...hwpri.Priority) []hwpri.Priority { return ps }

func TestPhaseSkipDecisionsPinned(t *testing.T) {
	fpu4 := []workload.Kind{workload.FPU, workload.FPU, workload.FPU, workload.FPU}
	sweepKinds := []workload.Kind{workload.FPU, workload.FXU, workload.L1, workload.L2}
	sweepLoads := []int64{396, 528, 1474, 2200}
	topo1 := power5.Topology{Chips: 1, CoresPerChip: 2, SMTWays: 2}
	topo2 := power5.Topology{Chips: 2, CoresPerChip: 2, SMTWays: 2}
	cases := []struct {
		name    string
		job     *mpisim.Job
		topo    power5.Topology
		pl      mpisim.Placement
		cycles  int64
		skipped int64
		digest  string
	}{
		{
			name:   "tableV-btmz",
			job:    ringJob("btmz", fpu4, []int64{39_600, 52_800, 147_400, 220_000}, 72),
			topo:   topo1,
			pl:     mpisim.DefaultPlacement(4),
			cycles: 6590485, skipped: 5859904, digest: "fa66bdcbb02685de",
		},
		{
			name:   "sweep-1x2x2",
			job:    ringJob("sweep", sweepKinds, sweepLoads, 36),
			topo:   topo1,
			pl:     mpisim.DefaultPlacement(4),
			cycles: 67641, skipped: 50652, digest: "4ae9ebf5f6bfce29",
		},
		{
			name:   "sweep-2x2x2-spread",
			job:    ringJob("sweep", sweepKinds, sweepLoads, 36),
			topo:   topo2,
			pl:     mpisim.Placement{CPU: []int{0, 2, 4, 6}, Prio: prios(3, 4, 5, 6)},
			cycles: 124965, skipped: 104160, digest: "dfd944b5b81180f8",
		},
		{
			name:   "sweep-2x2x2-paired",
			job:    ringJob("sweep", sweepKinds, sweepLoads, 36),
			topo:   topo2,
			pl:     mpisim.Placement{CPU: []int{0, 5, 1, 4}, Prio: prios(4, 6, 2, 4)},
			cycles: 221469, skipped: 184560, digest: "3e37f1fd4feb92a5",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			kern := oskernel.DefaultConfig()
			kern.TickPeriod = 0
			cfg := mpisim.Config{Chip: power5.DefaultConfig(), Topology: c.topo, Kernel: kern, KernelSet: true}
			res, err := mpisim.Run(c.job, c.pl, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("cycles=%d skipped=%d digest=%s", res.Cycles, res.SkippedCycles, resultDigest(t, res))
			want := fmt.Sprintf("cycles=%d skipped=%d digest=%s", c.cycles, c.skipped, c.digest)
			if got != want {
				t.Errorf("run changed:\n got %s\nwant %s", got, want)
			}
		})
	}
}
