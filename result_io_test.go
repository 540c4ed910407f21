package smtbalance

import (
	"fmt"
	"strings"
	"testing"
)

// failingWriter fails with a fixed error after passing through n bytes.
type failingWriter struct {
	n   int
	err error
}

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.err == nil {
		w.err = fmt.Errorf("disk full")
	}
	if w.n <= 0 {
		return 0, w.err
	}
	if len(p) <= w.n {
		w.n -= len(p)
		return len(p), nil
	}
	n := w.n
	w.n = 0
	return n, w.err
}

// smallResult runs a tiny deterministic job for the trace writer tests.
func smallResult(t *testing.T) *Result {
	t.Helper()
	res, err := runWith(sweepTestJob(1500, 6000), PinInOrder(4), &Options{NoOSNoise: true})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestWriteTraceCSV(t *testing.T) {
	res := smallResult(t)
	var b strings.Builder
	if err := res.WriteTraceCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if lines[0] != "rank,state,from,to" {
		t.Errorf("trace CSV header = %q", lines[0])
	}
	if len(lines) < 5 { // at least one interval per rank
		t.Fatalf("trace CSV has only %d lines", len(lines))
	}
	for i, ln := range lines[1:] {
		if n := len(strings.Split(ln, ",")); n != 4 {
			t.Errorf("row %d has %d fields: %q", i+1, n, ln)
		}
	}
}

func TestWriteTraceCSVErrorPropagation(t *testing.T) {
	res := smallResult(t)
	var full strings.Builder
	if err := res.WriteTraceCSV(&full); err != nil {
		t.Fatal(err)
	}
	// Fail on the header itself, then at later cut-offs strictly inside
	// the output: the writer's error must surface each time.
	for _, cut := range []int{0, 5, full.Len() / 2, full.Len() - 1} {
		w := &failingWriter{n: cut}
		if err := res.WriteTraceCSV(w); err == nil {
			t.Errorf("WriteTraceCSV with writer failing after %d bytes returned nil", cut)
		} else if !strings.Contains(err.Error(), "disk full") {
			t.Errorf("WriteTraceCSV lost the writer's error: %v", err)
		}
	}
}

func TestWriteParaver(t *testing.T) {
	res := smallResult(t)
	var b strings.Builder
	if err := res.WriteParaver(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if !strings.HasPrefix(lines[0], "#Paraver") {
		t.Errorf("PRV header = %q", lines[0])
	}
	for i, ln := range lines[1:] {
		if !strings.HasPrefix(ln, "1:") || len(strings.Split(ln, ":")) != 8 {
			t.Errorf("PRV record %d malformed: %q", i+1, ln)
		}
	}
}

func TestWriteParaverErrorPropagation(t *testing.T) {
	res := smallResult(t)
	for _, cut := range []int{0, 10, 100} {
		w := &failingWriter{n: cut}
		if err := res.WriteParaver(w); err == nil {
			t.Errorf("WriteParaver with writer failing after %d bytes returned nil", cut)
		} else if !strings.Contains(err.Error(), "disk full") {
			t.Errorf("WriteParaver lost the writer's error: %v", err)
		}
	}
}

func TestSweepWriteCSVFormatting(t *testing.T) {
	res, err := sweepWith(nil, sweepTestJob(1500, 6000), Space{FixPairing: true,
		Priorities: []Priority{PriorityMedium, PriorityHigh}}, &SweepOptions{Top: 2})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := res.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if lines[0] != "rank,cpus,priorities,cycles,seconds,imbalance_pct,score" {
		t.Errorf("CSV header = %q", lines[0])
	}
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want header + 2 rows", len(lines))
	}
	for i, ln := range lines[1:] {
		fields := strings.Split(ln, ",")
		if len(fields) != 7 {
			t.Fatalf("row %d has %d fields: %q", i+1, len(fields), ln)
		}
		if fields[0] != fmt.Sprint(i+1) {
			t.Errorf("row %d numbered %q", i+1, fields[0])
		}
		if len(strings.Fields(fields[1])) != 4 || len(strings.Fields(fields[2])) != 4 {
			t.Errorf("row %d cpus/priorities not space-joined 4-lists: %q", i+1, ln)
		}
	}

	// Error propagation: header write, then mid-row cut-offs.
	for _, cut := range []int{0, 10, 60} {
		w := &failingWriter{n: cut}
		if err := res.WriteCSV(w); err == nil {
			t.Errorf("WriteCSV with writer failing after %d bytes returned nil", cut)
		} else if !strings.Contains(err.Error(), "disk full") {
			t.Errorf("WriteCSV lost the writer's error: %v", err)
		}
	}
}
