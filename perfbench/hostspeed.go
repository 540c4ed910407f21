package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed normalisation.
//
// The benchmark runs on shared hosts whose speed drifts: on a 2-vCPU VM
// the same op took 1.7× as long in one hour as in another, and ten
// 30-second runs of one commit spread by up to half their median in raw
// time.  Two things move: the hypervisor steals CPU time in bursts
// (/proc/stat's steal counter read 0–34% over a run), and every
// instruction runs slower or faster as neighbours come and go.
//
// A gauge therefore samples the host in the background every refEvery
// while a phase is timed: it reads the steal counter, and it times a
// fixed reference kernel in its thread's CPU time, which steal does not
// inflate.  Calls around which more than maxStolen was stolen are left
// out of the figures (keeping at least the least-stolen quarter), and
// each remaining call is scaled to the nominal host: its time less the
// stolen share, over the median kernel time around it relative to
// refNominalMs.  The kernel is the benchmark's own
// code, shaped like the simulator's work: pointer loads, unpredictable
// branches and small stores within the host's L2, as in the chip loop,
// and page faults on fresh memory, as in the simulator state every sweep
// point allocates.  A change to the program moves the calls and not the
// kernel, so a gain still shows in full.  The raw times are printed
// beside the scaled ones.

// refNominalMs is the kernel's time on the host the scaled figures are
// expressed in: ms and s in the end-to-end metrics are milliseconds and
// seconds of a host on which one kernel run takes this long.  It fixes
// the unit only; any constant would do.
const refNominalMs = 3.5

// refSteps and refFaultBytes are one kernel run's work: a walk of
// refSteps steps, then a first touch of every page of a fresh
// refFaultBytes mapping; about refNominalMs on a 2-vCPU x86 VM.
const (
	refSteps      = 200_000
	refFaultBytes = 1 << 20
)

// refEvery is the gauge's sampling period: one kernel run per period
// costs the workload about 4% of one CPU.
const refEvery = 50 * time.Millisecond

// refNode is one node of the reference kernel's ring.
type refNode struct {
	next *refNode
	val  uint64
	op   int
}

// refKernel is the reference kernel: a walk around a ring of 8192
// nodes (192 KiB) laid out in a seeded random order, each step a
// data-dependent load, a four-way branch on the node and a store.
// That is the simulator's diet of pointer loads, unpredictable branches
// and small-struct updates within the host's L2.  The walk allocates
// nothing.
type refKernel struct {
	ring []refNode
	acc  uint64
}

func newRefKernel() *refKernel {
	const n = 8192
	k := &refKernel{ring: make([]refNode, n)}
	rng := newRand(0, 0)
	order := rng.Perm(n)
	for i, at := range order {
		k.ring[at].next = &k.ring[order[(i+1)%n]]
		k.ring[at].op = rng.IntN(4)
	}
	return k
}

// run is one kernel run: the walk, then the page faults.
func (k *refKernel) run() error {
	k.walk(refSteps)
	return faultPages(refFaultBytes)
}

// faultPages maps n fresh bytes, touches each page once and unmaps them.
func faultPages(n int) error {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return err
	}
	for i := 0; i < n; i += os.Getpagesize() {
		b[i] = 1
	}
	return syscall.Munmap(b)
}

// walk takes n steps from the ring's first node.
func (k *refKernel) walk(n int) {
	p := &k.ring[0]
	acc := k.acc
	for range n {
		switch p.op {
		case 0:
			acc += p.val
		case 1:
			acc ^= p.val << 3
		case 2:
			acc -= p.val >> 1
		default:
			acc = acc*3 + 1
		}
		p.val = acc
		p = p.next
	}
	k.acc = acc
}

// refSpan is how far before and after a timed call the gauge samples
// that scale it may lie: wide enough to hold a few dozen samples, short
// against the seconds over which the host's speed flips.
const refSpan = 500 * time.Millisecond

// speedGauge samples the host while a phase of the workload runs.  Each
// sample reads the steal counter and times one kernel run in its
// thread's CPU time, so neither steal nor the time the sampler waits for
// a CPU the workload holds counts, while a host that runs every
// instruction slower does.
type speedGauge struct {
	kernel  *refKernel
	stop    chan struct{}
	done    chan struct{}
	samples []gaugeSample // the sampler's until done closes
	err     error         // why the sampler stopped early, if it did
}

type gaugeSample struct {
	at           time.Time
	slow         float64 // kernel CPU time over refNominalMs
	ticks, stole int64   // CPU time of every CPU so far, and the part the hypervisor stole
}

// timedCall is one timed call of a workload: when it started and how
// long it took.
type timedCall struct {
	at time.Time
	d  time.Duration
}

// gauge returns a speed gauge, or nil in a traced run: per-layer figures
// are unscaled.
func (c config) gauge() *speedGauge {
	if c.tr != nil {
		return nil
	}
	g := &speedGauge{kernel: newRefKernel()}
	g.kernel.walk(refSteps) // fault the ring in, warm the caches
	return g
}

// start begins a phase: a sampler goroutine times one kernel run at once
// and one every refEvery until end.  A nil gauge does nothing.
func (g *speedGauge) start() {
	if g == nil {
		return
	}
	g.stop, g.done, g.samples = make(chan struct{}), make(chan struct{}), nil
	go func() {
		defer close(g.done)
		runtime.LockOSThread() // the thread's CPU time is the goroutine's
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(refEvery)
		defer tick.Stop()
		for {
			ticks, stole, err := cpuTicks()
			if err != nil {
				g.err = err
				return
			}
			at, t0 := time.Now(), threadCPUTime()
			if err := g.kernel.run(); err != nil {
				g.err = err
				return
			}
			ms := float64((threadCPUTime() - t0).Nanoseconds()) / 1e6
			g.samples = append(g.samples, gaugeSample{at, ms / refNominalMs, ticks, stole})
			select {
			case <-g.stop:
				return
			case <-tick.C:
			}
		}
	}()
}

// end stops the sampler, waits for it and returns the error that
// stopped it early, if one did.  A nil or stopped gauge does nothing, so
// end may also be deferred.
func (g *speedGauge) end() error {
	if g == nil || g.stop == nil {
		return nil
	}
	close(g.stop)
	<-g.done
	g.stop = nil
	return g.err
}

// slowdown is the median of the samples taken between from and to, or of
// every sample of the phase if none was: 1 is the nominal host, 1.5 one
// on which everything takes half as long again.  A nil gauge reads 1.
func (g *speedGauge) slowdown(from, to time.Time) float64 {
	if g == nil {
		return 1
	}
	var in, all []float64
	for _, s := range g.samples {
		all = append(all, s.slow)
		if !s.at.Before(from) && !s.at.After(to) {
			in = append(in, s.slow)
		}
	}
	if len(in) == 0 {
		in = all
	}
	return percentile(in, 50)
}

// stolen is the share of every CPU's time the hypervisor stole between
// the first sample at or after from and the last at or before to; 0 for
// a nil gauge or fewer than two such samples.
func (g *speedGauge) stolen(from, to time.Time) float64 {
	if g == nil {
		return 0
	}
	var first, last *gaugeSample
	for i := range g.samples {
		s := &g.samples[i]
		if s.at.Before(from) || s.at.After(to) {
			continue
		}
		if first == nil {
			first = s
		}
		last = s
	}
	if first == nil || last.ticks == first.ticks {
		return 0
	}
	return float64(last.stole-first.stole) / float64(last.ticks-first.ticks)
}

// maxStolen is the most of the CPUs' time the hypervisor may steal
// around a call for the call to count as steady.  Stealing hurts a Go
// program more than its share: a CPU handed back with cold caches runs
// slower, and a stop-the-world pause waits for a descheduled CPU while
// the other idles.  On a 2-vCPU VM a sweep op under 34% steal took 2.2×
// as long, not the 1.5× the stolen share alone explains.  So the
// figures come from steady calls.
const maxStolen = 0.02

// steady reports, per call, whether the figures take it: every call
// around which the hypervisor stole at most maxStolen of the CPUs' time,
// from refSpan before the call to refSpan after it, and in any case the
// least-stolen quarter of the calls, and at least three.  A nil gauge
// takes every call.
func (g *speedGauge) steady(calls []timedCall) []bool {
	stolen := make([]float64, len(calls))
	for i, c := range calls {
		stolen[i] = g.stolen(c.at.Add(-refSpan), c.at.Add(c.d+refSpan))
	}
	// A call is taken if it is under maxStolen or under the stolen share
	// of the least-stolen quarter's last call.
	limit := maxStolen
	if least := min(len(calls), max(3, (len(calls)+3)/4)); least > 0 {
		sorted := append([]float64(nil), stolen...)
		sort.Float64s(sorted)
		limit = max(limit, sorted[least-1])
	}
	keep := make([]bool, len(calls))
	for i, s := range stolen {
		keep[i] = s <= limit
	}
	return keep
}

// kept returns the elements of xs whose keep flag is set.
func kept[T any](xs []T, keep []bool) []T {
	var out []T
	for i, x := range xs {
		if keep[i] {
			out = append(out, x)
		}
	}
	return out
}

// scaled returns each call's duration in nominal-host milliseconds: its
// raw time, less the share the hypervisor stole, over the slowdown the
// gauge read, both from refSpan before the call to refSpan after it.
// Call it after end.  A nil gauge returns the raw times.
func (g *speedGauge) scaled(calls []timedCall) []float64 {
	out := make([]float64, len(calls))
	for i, c := range calls {
		from, to := c.at.Add(-refSpan), c.at.Add(c.d+refSpan)
		out[i] = float64(c.d.Nanoseconds()) / 1e6 * (1 - g.stolen(from, to)) / g.slowdown(from, to)
	}
	return out
}

// cpuTicks reads the CPU time of every CPU since boot, and the part of
// it the hypervisor stole, from the first line of /proc/stat, in clock
// ticks.
func cpuTicks() (ticks, stole int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice]
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	for i, s := range f[1:9] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		ticks += n
		if i == 7 {
			stole = n
		}
	}
	return ticks, stole, nil
}

// threadCPUTime is the calling thread's CPU time.
func threadCPUTime() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// note adds a phase's unscaled times and the slowdown the gauge read
// over it to the report's notes.
func (g *speedGauge) note(rep *report, phase string, calls []timedCall) {
	if g == nil || len(calls) == 0 {
		return
	}
	raw := make([]float64, len(calls))
	for i, c := range calls {
		raw[i] = float64(c.d.Nanoseconds()) / 1e6
	}
	from, to := calls[0].at, calls[len(calls)-1].at.Add(calls[len(calls)-1].d)
	rep.notes = append(rep.notes, fmt.Sprintf(
		"%s unscaled: p50 %.6g ms, p90 %.6g ms; %d of %d calls steady; stolen %.4f; host slowdown %.4f (median reference kernel CPU time over %.1f ms, %d samples)",
		phase, percentile(raw, 50), percentile(raw, 90), len(kept(calls, g.steady(calls))), len(calls),
		g.stolen(from, to), g.slowdown(from, to), refNominalMs, len(g.samples)))
}
