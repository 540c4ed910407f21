package main

import (
	"reflect"
	"testing"
	"time"
)

func TestReferenceKernelIsFixedWork(t *testing.T) {
	// The gauge is only a yardstick if every sample does the same work:
	// two kernels are built alike, walk the whole ring, and end in the
	// same state.
	a, b := newRefKernel(), newRefKernel()
	seen := map[*refNode]bool{}
	for p := &a.ring[0]; !seen[p]; p = p.next {
		seen[p] = true
	}
	if len(seen) != len(a.ring) {
		t.Fatalf("the ring is a cycle of %d of %d nodes", len(seen), len(a.ring))
	}
	for range 2 {
		a.walk(20_000)
		b.walk(20_000)
	}
	if a.acc != b.acc || a.acc == 0 {
		t.Fatalf("kernels diverged: %d vs %d", a.acc, b.acc)
	}
}

func TestGauge(t *testing.T) {
	var off *speedGauge // a traced run's
	off.start()
	off.end()
	call := timedCall{time.Now(), 3 * time.Millisecond}
	if got := off.scaled([]timedCall{call}); got[0] != 3 {
		t.Fatalf("a nil gauge scaled 3 ms to %v", got[0])
	}

	// Samples inside a call's span scale it; outside ones do not, unless
	// there are none inside.
	t0 := time.Now()
	g := &speedGauge{samples: []gaugeSample{{at: t0, slow: 2}, {at: t0.Add(time.Second), slow: 2}, {at: t0.Add(5 * time.Second), slow: 4}}}
	calls := []timedCall{{t0.Add(refSpan), 10 * time.Millisecond}, {t0.Add(4600 * time.Millisecond), 10 * time.Millisecond}, {t0.Add(time.Minute), time.Millisecond}}
	if got := g.scaled(calls); got[0] != 5 || got[1] != 2.5 || got[2] != 0.5 {
		t.Fatalf("scaled = %v, want [5 2.5 0.5]", got)
	}

	// A quarter of the CPU time stolen in the first second, none in the
	// next: a call across the first second keeps three quarters of its
	// time.
	g = &speedGauge{samples: []gaugeSample{
		{at: t0, slow: 1}, {at: t0.Add(time.Second), slow: 1, ticks: 200, stole: 50}, {at: t0.Add(2 * time.Second), slow: 1, ticks: 400, stole: 50}}}
	for _, c := range []struct {
		from, to time.Duration
		want     float64
	}{{0, time.Second, 0.25}, {time.Second, 2 * time.Second, 0}, {0, 2 * time.Second, 0.125}, {0, time.Second / 2, 0}} {
		if got := g.stolen(t0.Add(c.from), t0.Add(c.to)); got != c.want {
			t.Errorf("stolen over %v..%v = %v, want %v", c.from, c.to, got, c.want)
		}
	}
	if got := g.scaled([]timedCall{{t0.Add(refSpan), 8 * time.Millisecond}}); got[0] != 6 {
		t.Errorf("8 ms with a quarter stolen scaled to %v, want 6", got[0])
	}

	// The call around the stolen second goes, unless it is needed to
	// make up three calls.
	g.samples = append(g.samples, gaugeSample{at: t0.Add(3 * time.Second), slow: 1, ticks: 600, stole: 50},
		gaugeSample{at: t0.Add(4 * time.Second), slow: 1, ticks: 800, stole: 50})
	steadyAt := func(from time.Duration) timedCall { return timedCall{t0.Add(from + refSpan), time.Second - 2*refSpan} }
	four := []timedCall{steadyAt(0), steadyAt(time.Second), steadyAt(2 * time.Second), steadyAt(3 * time.Second)}
	if got := g.steady(four); !reflect.DeepEqual(got, []bool{false, true, true, true}) {
		t.Errorf("steady = %v", got)
	}
	if got := g.steady(four[:3]); !reflect.DeepEqual(got, []bool{true, true, true}) {
		t.Errorf("steady of three calls = %v", got)
	}

	g = config{}.gauge()
	g.start()
	defer g.end()
	time.Sleep(3 * refEvery / 2)
	if err := g.end(); err != nil {
		t.Fatal(err)
	}
	if len(g.samples) < 2 || g.samples[0].slow <= 0 {
		t.Fatalf("gauge took %d samples: %v", len(g.samples), g.samples)
	}
}
