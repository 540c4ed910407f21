package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// spanRecord is one finished span: a call into a layer, timed from the
// benchmark's side of the boundary.  Times are nanoseconds since the
// tracer started.
type spanRecord struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span of a traced run in memory; writeJSONL writes
// them out once the run is over.  A nil *tracer is tracing off: spans
// still time their call (the workloads use that duration) but record
// nothing.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []spanRecord //mtlint:guardedby mu
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// span is an open span.  The zero parent is the root.
type span struct {
	t      *tracer
	name   string
	id     uint64
	parent uint64
	start  time.Time
}

func (t *tracer) start(name string, parent uint64) span {
	s := span{t: t, name: name, parent: parent, start: time.Now()}
	if t != nil {
		s.id = t.ids.Add(1)
	}
	return s
}

// end closes the span and returns its duration.
func (s span) end() time.Duration {
	now := time.Now()
	if s.t != nil {
		s.t.mu.Lock()
		s.t.spans = append(s.t.spans, spanRecord{
			Name: s.name, ID: s.id, Parent: s.parent,
			Start: s.start.Sub(s.t.epoch).Nanoseconds(), End: now.Sub(s.t.epoch).Nanoseconds(),
		})
		s.t.mu.Unlock()
	}
	return now.Sub(s.start)
}

func (t *tracer) records() []spanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]spanRecord(nil), t.spans...)
}

func (t *tracer) writeJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range t.records() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// selfTimes sums, per layer, the time its spans spent outside their
// child spans: a span's duration minus the part of its interval the
// union of its children covers.  The layer is the span name up to its
// last dot.
func selfTimes(spans []spanRecord) map[string]time.Duration {
	children := map[uint64][]spanRecord{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, reach int64
		reach = s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[layerOf(s.Name)] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

func layerOf(name string) string {
	if i := strings.LastIndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

func printSelfTimes(w io.Writer, spans []spanRecord) {
	self := selfTimes(spans)
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Fprintf(w, "# self time by layer (%d spans)\n", len(spans))
	for _, l := range layers {
		fmt.Fprintf(w, "#   %-22s %12.3f ms\n", l, float64(self[l])/1e6)
	}
}
