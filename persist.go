package smtbalance

import (
	"encoding/json"
	"fmt"

	"repro/internal/trace"
)

// This file defines the on-disk record form of the result cache's
// outcomes.  Records are JSON for debuggability (an operator can cat a
// cache entry), and every numeric field round-trips exactly —
// encoding/json emits the shortest float64 representation that decodes
// to the same bits — so a result revived from disk is indistinguishable
// from the run that produced it, trace included.
//
// diskVersion names the store's directory: "v2" tracks the cache-key
// format (the envJobKey version tag), "r1" the record schema below.
// Bump the matching half on any change — old trees then become
// invisible instead of corrupt.
const diskVersion = "v2r1"

// diskInterval is one trace interval on disk (state, from, to).
type diskInterval struct {
	S uint8 `json:"s"`
	F int64 `json:"f"`
	T int64 `json:"t"`
}

// diskRank mirrors RankSummary on disk.
type diskRank struct {
	CPU          int     `json:"cpu"`
	Core         int     `json:"core"`
	Chip         int     `json:"chip"`
	Priority     int     `json:"priority"`
	ComputePct   float64 `json:"compute_pct"`
	SyncPct      float64 `json:"sync_pct"`
	CommPct      float64 `json:"comm_pct"`
	Instructions int64   `json:"instructions"`
}

// diskResult is a Result on disk.  A full record (kind "run") carries
// the ranks and the trace; a metrics-only record (kind "met") omits
// everything but seconds, cycles and imbalance_pct.  Records are keyed by
// name, so the older met form, {"cycles","seconds","imbalance_pct"},
// decodes unchanged.
type diskResult struct {
	Seconds       float64          `json:"seconds"`
	Cycles        int64            `json:"cycles"`
	ImbalancePct  float64          `json:"imbalance_pct"`
	Iterations    int              `json:"iterations,omitempty"`
	BalancerMoves int              `json:"balancer_moves,omitempty"`
	Policy        string           `json:"policy,omitempty"`
	SkippedCycles int64            `json:"skipped_cycles,omitempty"`
	Ranks         []diskRank       `json:"ranks,omitempty"`
	TraceEnd      int64            `json:"trace_end,omitempty"`
	Trace         [][]diskInterval `json:"trace,omitempty"`
}

// encodeResult renders a Result as its full disk record, or as its
// metrics-only record when full is false.  A full record needs the
// trace: a result without one is not persistable (the record would
// revive incompletely) and reports ok=false.
func encodeResult(r *Result, full bool) (data []byte, ok bool) {
	rec := diskResult{Seconds: r.Seconds, Cycles: r.Cycles, ImbalancePct: r.ImbalancePct}
	if full {
		if r.tr == nil {
			return nil, false
		}
		rec.Iterations, rec.BalancerMoves = r.Iterations, r.BalancerMoves
		rec.Policy, rec.SkippedCycles, rec.TraceEnd = r.Policy, r.SkippedCycles, r.tr.End()
		for _, rs := range r.Ranks {
			rec.Ranks = append(rec.Ranks, diskRank{
				CPU: rs.CPU, Core: rs.Core, Chip: rs.Chip, Priority: int(rs.Priority),
				ComputePct: rs.ComputePct, SyncPct: rs.SyncPct, CommPct: rs.CommPct,
				Instructions: rs.Instructions,
			})
		}
		rec.Trace = make([][]diskInterval, r.tr.NumRanks())
		for i := 0; i < r.tr.NumRanks(); i++ {
			for _, iv := range r.tr.Intervals(i) {
				rec.Trace[i] = append(rec.Trace[i], diskInterval{S: uint8(iv.State), F: iv.From, T: iv.To})
			}
		}
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return nil, false // unreachable: the record is plain data
	}
	return data, true
}

// decodeResult revives a Result from its full disk record, or its
// metrics from a metrics-only record when full is false.  Any
// inconsistency — bad JSON, a missing or invalid trace — is an error;
// callers treat it as a cache miss and re-simulate.
func decodeResult(data []byte, full bool) (*Result, error) {
	var rec diskResult
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("smtbalance: corrupt result record: %w", err)
	}
	if !full {
		return &Result{Seconds: rec.Seconds, Cycles: rec.Cycles, ImbalancePct: rec.ImbalancePct}, nil
	}
	ranks := make([][]trace.Interval, len(rec.Trace))
	for i, ivs := range rec.Trace {
		for _, iv := range ivs {
			ranks[i] = append(ranks[i], trace.Interval{State: trace.State(iv.S), From: iv.F, To: iv.T})
		}
	}
	tr, err := trace.FromIntervals(ranks, rec.TraceEnd)
	if err != nil {
		return nil, fmt.Errorf("smtbalance: corrupt result record: %w", err)
	}
	out := &Result{
		Seconds:       rec.Seconds,
		Cycles:        rec.Cycles,
		ImbalancePct:  rec.ImbalancePct,
		Iterations:    rec.Iterations,
		BalancerMoves: rec.BalancerMoves,
		Policy:        rec.Policy,
		SkippedCycles: rec.SkippedCycles,
		tr:            tr,
	}
	for _, dr := range rec.Ranks {
		out.Ranks = append(out.Ranks, RankSummary{
			CPU: dr.CPU, Core: dr.Core, Chip: dr.Chip, Priority: Priority(dr.Priority),
			ComputePct: dr.ComputePct, SyncPct: dr.SyncPct, CommPct: dr.CommPct,
			Instructions: dr.Instructions,
		})
	}
	return out, nil
}
