package smtbalance

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestKeyRingFIFO pins the ring's queue discipline and its growth
// contract (geometric, reusable slots).
func TestKeyRingFIFO(t *testing.T) {
	var r keyRing[cacheKey]
	for i := 0; i < 100; i++ {
		r.push(cacheKey{byte(i)})
	}
	if r.n != 100 {
		t.Fatalf("len = %d, want 100", r.n)
	}
	for i := 0; i < 100; i++ {
		if k := r.pop(); k != (cacheKey{byte(i)}) {
			t.Fatalf("pop %d returned key %v, not FIFO", i, k[0])
		}
	}
	if r.n != 0 {
		t.Errorf("drained ring has len %d", r.n)
	}
	defer func() {
		if recover() == nil {
			t.Error("pop from empty ring did not panic")
		}
	}()
	r.pop()
}

// TestRunCacheEvictionBounded is the regression test for the FIFO
// eviction leak: an order queue re-sliced on eviction (order =
// order[1:]) keeps every evicted key's slot reachable from its backing
// array, so a long-running server's queue grows without bound.  Every
// bounded store — the generic fifoMap, both result-cache layers and the
// Matrix engine's machine set — must stay within one doubling of its
// cap no matter how many entries pass through, and evict oldest first.
func TestRunCacheEvictionBounded(t *testing.T) {
	keyOf := func(i int) cacheKey {
		var k cacheKey
		k[0], k[1], k[2] = byte(i), byte(i>>8), byte(i>>16)
		return k
	}
	f := fifoMap[int, int]{cap: 8}
	for i := 0; i < 10_000; i++ {
		f.put(i, i)
	}
	if f.len() != 8 || len(f.order.buf) > 16 {
		t.Errorf("fifoMap holds %d entries in %d ring slots, cap 8", f.len(), len(f.order.buf))
	}
	for i := 10_000 - 8; i < 10_000; i++ {
		if v, ok := f.get(i); !ok || v != i {
			t.Errorf("recent key %d evicted before older ones", i)
		}
	}

	c := newResultCache()
	c.runs.cap = 8
	c.mets.cap = 8
	for i := 0; i < 10_000; i++ {
		c.put(slot{key: keyOf(i), full: true}, &Result{Cycles: int64(i)})
		c.put(slot{key: keyOf(i)}, &Result{Cycles: int64(i)})
	}
	if st := c.stats(); st.Results != 8 || st.Metrics != 8 {
		t.Errorf("layers hold %d results and %d metrics, cap 8 each", st.Results, st.Metrics)
	}
	if got := len(c.runs.order.buf); got > 16 {
		t.Errorf("run eviction queue backing array grew to %d slots for cap 8", got)
	}
	if got := len(c.mets.order.buf); got > 16 {
		t.Errorf("metrics eviction queue backing array grew to %d slots for cap 8", got)
	}
	// FIFO: the survivors are exactly the 8 newest keys.
	for i := 10_000 - 8; i < 10_000; i++ {
		if _, ok := c.get(slot{key: keyOf(i), full: true}); !ok {
			t.Errorf("recent key %d evicted before older ones", i)
		}
	}

	mx := NewMatrix()
	for chips := 1; chips <= 3*matrixMachineCap; chips++ {
		if _, err := mx.machine(Topology{Chips: chips, CoresPerChip: 1, SMTWays: 2}); err != nil {
			t.Fatal(err)
		}
	}
	mx.mu.Lock()
	n, slots := mx.machines.len(), len(mx.machines.order.buf)
	_, newest := mx.machines.get(Topology{Chips: 3 * matrixMachineCap, CoresPerChip: 1, SMTWays: 2})
	_, oldest := mx.machines.get(Topology{Chips: 1, CoresPerChip: 1, SMTWays: 2})
	mx.mu.Unlock()
	if n != matrixMachineCap || slots > 2*matrixMachineCap {
		t.Errorf("matrix holds %d machines in %d ring slots, cap %d", n, slots, matrixMachineCap)
	}
	if !newest || oldest {
		t.Errorf("matrix machine set is not FIFO: newest kept %v, oldest kept %v", newest, oldest)
	}
}

// TestResultCacheConcurrent hammers one cache from many goroutines with
// overlapping keys under tiny caps — the invariants (entry counts at or
// below cap, hit+miss bookkeeping) must hold and the race detector must
// stay quiet.
func TestResultCacheConcurrent(t *testing.T) {
	c := newResultCache()
	c.runs.cap = 4
	c.mets.cap = 4
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s := slot{key: cacheKey{byte((g + i) % 16)}, full: i%2 == 0}
				if _, ok := c.get(s); !ok {
					c.put(s, &Result{Cycles: int64(i)})
				}
				if i%100 == 0 && g == 0 {
					c.clear()
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.stats()
	if st.Results > 4 || st.Metrics > 4 {
		t.Errorf("caps violated: %+v", st)
	}
	if st.Hits+st.Misses != 8*500 {
		t.Errorf("hits %d + misses %d != %d lookups", st.Hits, st.Misses, 8*500)
	}
}

// bindCountingPolicy counts how many simulations actually bind it —
// Bind runs exactly once per real simulator execution, never for cache
// hits or coalesced followers — making it a precise probe for the
// singleflight guarantee.
type bindCountingPolicy struct{ binds *atomic.Int64 }

func (p bindCountingPolicy) Name() string                            { return "bindcount" }
func (p bindCountingPolicy) Params() map[string]string               { return nil }
func (p bindCountingPolicy) Observe(IterationStats) []PriorityAction { return nil }
func (p bindCountingPolicy) Bind(topo Topology, pl Placement) Policy {
	p.binds.Add(1)
	return p
}

// TestRunPolicyCoalescesIdenticalRuns is the machine-level singleflight
// proof: N identical concurrent runs on a cold cache must execute
// exactly one simulation, and every caller must get the same result.
func TestRunPolicyCoalescesIdenticalRuns(t *testing.T) {
	m, err := NewMachine(nil)
	if err != nil {
		t.Fatal(err)
	}
	job := Job{Name: "herd", Ranks: [][]Phase{
		{Compute("fpu", 120_000), Barrier()},
		{Compute("fpu", 480_000), Barrier()},
		{Compute("fpu", 120_000), Barrier()},
		{Compute("fpu", 480_000), Barrier()},
	}}
	pl, err := m.Topology().PinInOrder(4)
	if err != nil {
		t.Fatal(err)
	}
	var binds atomic.Int64
	pol := bindCountingPolicy{binds: &binds}

	const herd = 8
	results := make([]*Result, herd)
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := m.RunPolicy(context.Background(), job, pl, pol)
			if err != nil {
				t.Errorf("herd run %d: %v", i, err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	if got := binds.Load(); got != 1 {
		t.Errorf("herd of %d bound the policy %d times, want exactly 1 simulation", herd, got)
	}
	st := m.CacheStats()
	if sims := st.Misses - st.Coalesced - st.DiskHits; sims != 1 {
		t.Errorf("cache says %d simulations ran (stats %+v), want 1", sims, st)
	}
	for i := 1; i < herd; i++ {
		if results[i] == nil || results[0] == nil {
			continue // already reported
		}
		if results[i].Cycles != results[0].Cycles || !reflect.DeepEqual(results[i].Ranks, results[0].Ranks) {
			t.Errorf("herd result %d differs from result 0", i)
		}
		if results[i] == results[0] || &results[i].Ranks[0] == &results[0].Ranks[0] {
			t.Errorf("herd results %d and 0 share mutable memory", i)
		}
	}
}

// TestUseDiskCacheRoundTrip persists a run through the disk tier and
// revives it on a fresh machine: the revived result must be
// indistinguishable — numerically bit-equal, trace included — and cost
// zero simulations.
func TestUseDiskCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	job := Job{Name: "disk", Ranks: [][]Phase{
		{Compute("fpu", 3000), Barrier(), Compute("l1", 2000), Barrier()},
		{Compute("fpu", 12000), Barrier(), Compute("l1", 8000), Barrier()},
		{Compute("fpu", 3000), Barrier(), Compute("l1", 2000), Barrier()},
		{Compute("fpu", 12000), Barrier(), Compute("l1", 8000), Barrier()},
	}}

	m1, err := NewMachine(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.UseDiskCache(dir); err != nil {
		t.Fatal(err)
	}
	pl, err := m1.Topology().PinInOrder(4)
	if err != nil {
		t.Fatal(err)
	}
	first, err := m1.Run(context.Background(), job, pl)
	if err != nil {
		t.Fatal(err)
	}
	if st := m1.CacheStats(); st.DiskWrites == 0 {
		t.Fatalf("run wrote nothing to the disk tier: %+v", st)
	}

	m2, err := NewMachine(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.UseDiskCache(dir); err != nil {
		t.Fatal(err)
	}
	revived, err := m2.Run(context.Background(), job, pl)
	if err != nil {
		t.Fatal(err)
	}
	if revived.Cycles != first.Cycles || revived.Seconds != first.Seconds ||
		revived.ImbalancePct != first.ImbalancePct || revived.Iterations != first.Iterations ||
		revived.SkippedCycles != first.SkippedCycles {
		t.Errorf("revived result differs:\n%+v\nvs\n%+v", revived, first)
	}
	if !reflect.DeepEqual(revived.Ranks, first.Ranks) {
		t.Errorf("revived ranks differ:\n%+v\nvs\n%+v", revived.Ranks, first.Ranks)
	}
	if revived.Timeline(72) != first.Timeline(72) {
		t.Errorf("revived trace renders differently:\n%s\nvs\n%s", revived.Timeline(72), first.Timeline(72))
	}
	st := m2.CacheStats()
	if st.DiskHits != 1 {
		t.Errorf("disk hits = %d, want 1 (%+v)", st.DiskHits, st)
	}
	if sims := st.Misses - st.Coalesced - st.DiskHits; sims != 0 {
		t.Errorf("revival executed %d simulations, want 0 (%+v)", sims, st)
	}

	// ClearCache drops memory only: a third lookup revives from disk
	// again rather than re-simulating.
	m2.ClearCache()
	if _, err := m2.Run(context.Background(), job, pl); err != nil {
		t.Fatal(err)
	}
	if st := m2.CacheStats(); st.DiskHits != 2 {
		t.Errorf("post-clear lookup did not revive from disk: %+v", st)
	}
}

// TestSweepSharesDiskCache runs the same sweep on two machines sharing
// one cache directory: the second must rank identically while reviving
// every point from disk.
func TestSweepSharesDiskCache(t *testing.T) {
	dir := t.TempDir()
	job := Job{Ranks: [][]Phase{
		{Compute("fpu", 2000), Barrier()},
		{Compute("fpu", 8000), Barrier()},
		{Compute("fpu", 2000), Barrier()},
		{Compute("fpu", 8000), Barrier()},
	}}
	space := Space{Priorities: []Priority{4, 6}, FixPairing: true}

	sweepOn := func() (*SweepResult, CacheStats) {
		m, err := NewMachine(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.UseDiskCache(dir); err != nil {
			t.Fatal(err)
		}
		res, err := m.SweepAll(context.Background(), job, space, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res, m.CacheStats()
	}

	first, st1 := sweepOn()
	if st1.DiskWrites == 0 {
		t.Fatalf("sweep wrote nothing to disk: %+v", st1)
	}
	second, st2 := sweepOn()
	if !reflect.DeepEqual(second.Entries, first.Entries) {
		t.Errorf("disk-revived sweep ranks differently:\n%+v\nvs\n%+v", second.Entries, first.Entries)
	}
	if st2.DiskHits != int64(second.Evaluated) {
		t.Errorf("second sweep revived %d of %d points from disk (%+v)", st2.DiskHits, second.Evaluated, st2)
	}
	if sims := st2.Misses - st2.Coalesced - st2.DiskHits; sims != 0 {
		t.Errorf("second sweep executed %d simulations, want 0 (%+v)", sims, st2)
	}
}

// TestDiskCacheCorruptRecordDegrades truncates a persisted record and
// checks the cache degrades to a re-simulation instead of serving (or
// choking on) garbage.
func TestDiskCacheCorruptRecordDegrades(t *testing.T) {
	dir := t.TempDir()
	job := Job{Ranks: [][]Phase{
		{Compute("fpu", 3000), Barrier()},
		{Compute("fpu", 9000), Barrier()},
	}}
	m1, err := NewMachine(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.UseDiskCache(dir); err != nil {
		t.Fatal(err)
	}
	pl, err := m1.Topology().PinInOrder(2)
	if err != nil {
		t.Fatal(err)
	}
	first, err := m1.Run(context.Background(), job, pl)
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt every run record in place.
	corrupted := 0
	err = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() && strings.HasSuffix(path, "-run.json") {
			corrupted++
			return os.WriteFile(path, []byte(`{"seconds": "not a number"`), 0o644)
		}
		return nil
	})
	if err != nil || corrupted == 0 {
		t.Fatalf("corrupted %d records, err %v", corrupted, err)
	}

	m2, err := NewMachine(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.UseDiskCache(dir); err != nil {
		t.Fatal(err)
	}
	again, err := m2.Run(context.Background(), job, pl)
	if err != nil {
		t.Fatalf("corrupt record broke the run: %v", err)
	}
	if again.Cycles != first.Cycles {
		t.Errorf("re-simulated result differs: %d vs %d cycles", again.Cycles, first.Cycles)
	}
	st := m2.CacheStats()
	if st.DiskHits != 0 {
		t.Errorf("corrupt record counted as a disk hit: %+v", st)
	}
	if sims := st.Misses - st.Coalesced - st.DiskHits; sims != 1 {
		t.Errorf("corrupt record should force exactly 1 simulation, got %d (%+v)", sims, st)
	}
}

// TestUseDiskCacheRejectsBadDir pins the error path: an unusable
// directory must fail loudly at attach time, not silently degrade.
func TestUseDiskCacheRejectsBadDir(t *testing.T) {
	m, err := NewMachine(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.UseDiskCache(""); err == nil {
		t.Error("UseDiskCache(\"\") succeeded")
	}
	file := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := m.UseDiskCache(file); err == nil {
		t.Error("UseDiskCache over a regular file succeeded")
	}
}

// TestEncodeResultRequiresTrace pins the persistence guard: a result
// without its trace cannot round-trip and must not be persisted.
func TestEncodeResultRequiresTrace(t *testing.T) {
	if _, ok := encodeResult(&Result{Cycles: 1}, true); ok {
		t.Error("traceless result claimed to be persistable")
	}
}

// TestDecodeResultRejectsGarbage pins decode's failure modes: syntax
// errors and structurally invalid traces both surface as errors.
func TestDecodeResultRejectsGarbage(t *testing.T) {
	if _, err := decodeResult([]byte(`{`), true); err == nil {
		t.Error("bad JSON decoded")
	}
	// Valid JSON, impossible trace: an interval past the recorded end.
	bad := `{"seconds": 1, "cycles": 10, "ranks": [], "trace_end": 5, "trace": [[{"s": 1, "f": 0, "t": 9}]]}`
	if _, err := decodeResult([]byte(bad), true); err == nil {
		t.Error("out-of-range trace decoded")
	}
	// A metrics-only record never revives as a full Result.
	if _, err := decodeResult([]byte(`{"cycles": 10, "seconds": 1, "imbalance_pct": 0}`), true); err == nil {
		t.Error("traceless record decoded as a full result")
	}
	if _, err := decodeResult([]byte(`[`), false); err == nil {
		t.Error("bad metrics JSON decoded")
	}
}

// TestFlightGroupPublishOnce pins the flight protocol: one leader per
// key, followers share the published value, forget makes the key fresh.
func TestFlightGroupPublishOnce(t *testing.T) {
	var g flightGroup[int]
	k := slot{key: cacheKey{1}}
	f, leader := g.join(k)
	if !leader {
		t.Fatal("first join was not the leader")
	}
	f2, leader2 := g.join(k)
	if leader2 || f2 != f {
		t.Fatal("second join did not follow the leader's flight")
	}
	done := make(chan int)
	go func() {
		<-f2.done
		done <- f2.val
	}()
	g.forget(k)
	f.publish(42, nil)
	if got := <-done; got != 42 {
		t.Fatalf("follower saw %d, want 42", got)
	}
	if _, leader3 := g.join(k); !leader3 {
		t.Fatal("join after forget did not start a fresh flight")
	}
}

// recordJob is the job whose records testdata/diskcache holds: one full
// Run record and one sweep-point metrics record of the same
// configuration (pinned in order at medium priority, no OS noise),
// written by the Machine before the outcome store was unified.
func recordJob() Job {
	return Job{Name: "parent-records", Ranks: [][]Phase{
		{Compute("fpu", 3000), Barrier(), Compute("l1", 2000), Barrier()},
		{Compute("fpu", 12000), Barrier(), Compute("l1", 8000), Barrier()},
		{Compute("fpu", 3000), Barrier(), Compute("l1", 2000), Barrier()},
		{Compute("fpu", 12000), Barrier(), Compute("l1", 8000), Barrier()},
	}}
}

// TestCheckedInRecordsRevive pins the disk format across the store
// unification: the checked-in "run" and "met" records must sit under
// the keys today's code computes, revive with zero simulations, and
// match a fresh simulation exactly — the run record re-encodes to its
// original bytes, trace included.
func TestCheckedInRecordsRevive(t *testing.T) {
	const dir = "testdata/diskcache/" + diskVersion
	opts := &Options{NoOSNoise: true}
	job, pl := recordJob(), PinInOrder(4)
	key := placementKey(envJobKey(*opts, job), pl)
	runRec, err := os.ReadFile(filepath.Join(dir, slot{key: key, full: true}.diskKey()[:2], slot{key: key, full: true}.diskKey()+".json"))
	if err != nil {
		t.Fatalf("run record not under today's key: %v", err)
	}
	metRec, err := os.ReadFile(filepath.Join(dir, slot{key: key}.diskKey()[:2], slot{key: key}.diskKey()+".json"))
	if err != nil {
		t.Fatalf("met record not under today's key: %v", err)
	}
	// Revive from a private copy, so nothing is ever written next to the
	// checked-in records.
	root := t.TempDir()
	for _, rec := range []struct {
		s    slot
		data []byte
	}{{slot{key: key, full: true}, runRec}, {slot{key: key}, metRec}} {
		path := filepath.Join(root, diskVersion, rec.s.diskKey()[:2], rec.s.diskKey()+".json")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, rec.data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m, err := NewMachine(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.UseDiskCache(root); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	revived, err := m.Run(ctx, job, pl)
	if err != nil {
		t.Fatal(err)
	}
	space := Space{FixPairing: true, Priorities: []Priority{PriorityMedium}}
	revivedSweep, err := m.SweepAll(ctx, job, space, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := m.CacheStats()
	if st.DiskHits != 2 || st.Misses-st.Coalesced-st.DiskHits != 0 {
		t.Errorf("revival: stats %+v, want 2 disk hits and 0 simulations", st)
	}

	fresh, err := runWith(job, pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, fresh, revived)
	if revived.SkippedCycles != fresh.SkippedCycles || revived.Policy != fresh.Policy || revived.BalancerMoves != fresh.BalancerMoves {
		t.Errorf("revived result differs: %+v vs %+v", revived, fresh)
	}
	if data, ok := encodeResult(revived, true); !ok || !bytes.Equal(data, runRec) {
		t.Errorf("revived run record re-encodes differently:\n%s\nvs checked in\n%s", data, runRec)
	}
	freshSweep, err := sweepWith(opts, job, space, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(revivedSweep.Entries, freshSweep.Entries) {
		t.Errorf("revived sweep point differs:\n%+v\nvs\n%+v", revivedSweep.Entries, freshSweep.Entries)
	}
}

// TestConcurrentRunAndSweepSameKeys runs Machine.Run and SweepAll over
// the same configurations at once: every Run must get a full Result
// with its trace — never a sweep point's metrics-only outcome — both
// sides must agree with a fresh simulation, and the simulation count
// must stay Misses − Coalesced − DiskHits.  Run it with -race.
func TestConcurrentRunAndSweepSameKeys(t *testing.T) {
	job := sweepTestJob(1500, 6000)
	space := Space{FixPairing: true, Priorities: []Priority{PriorityMedium, PriorityHigh}}
	want, err := sweepWith(nil, job, space, nil)
	if err != nil {
		t.Fatal(err)
	}
	var binds atomic.Int64
	m, err := NewMachine(&Options{Policy: bindCountingPolicy{binds: &binds}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const rounds = 4
	for round := 0; round < rounds; round++ {
		m.ClearCache() // every round starts cold, so Runs and sweep points race to lead
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				res, err := m.SweepAll(ctx, job, space, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if len(res.Entries) != len(want.Entries) {
					t.Errorf("sweep ranked %d entries, want %d", len(res.Entries), len(want.Entries))
				}
			}()
			go func() {
				defer wg.Done()
				for _, e := range want.Entries {
					res, err := m.Run(ctx, job, e.Placement)
					if err != nil {
						t.Error(err)
						return
					}
					if res.tr == nil || len(res.Ranks) != len(job.Ranks) || res.Iterations == 0 {
						t.Errorf("Run of %v got a partial result: %+v", e.Placement, res)
						return
					}
					if res.Cycles != e.Cycles {
						t.Errorf("Run of %v: %d cycles, sweep says %d", e.Placement, res.Cycles, e.Cycles)
					}
				}
			}()
		}
		wg.Wait()
	}
	st := m.CacheStats()
	sims := st.Misses - st.Coalesced - st.DiskHits
	if sims != binds.Load() {
		t.Errorf("stats say %d simulations, the policy was bound %d times (%+v)", sims, binds.Load(), st)
	}
}
