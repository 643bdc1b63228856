package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Spans recorded from the benchmark's own files around each call into a
// layer. A span names the layer, the op it belongs to and its parent;
// spans live in memory and are written out when the run ends.

// span is one timed call. Parent indexes the op's span list; -1 marks a
// root. Times are nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxKeptSpans bounds the spans written out; every op still feeds the
// per-layer samples.
const maxKeptSpans = 100_000

// tracer records the spans of one op at a time and folds each finished
// op into per-layer self-time samples.
type tracer struct {
	base  time.Time
	op    int64
	cur   []span
	kept  []span
	self  map[string][]float64 // µs of self time per span
	ops   int64
	spans int64
	// ladder and handler hold, per op that has both, the summed self
	// time under the "op" root and the handler time of the same op.
	ladder  []float64
	handler []float64
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), self: map[string][]float64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin starts a new op.
func (t *tracer) begin() {
	t.cur = t.cur[:0]
	t.op++
}

// start opens a span under parent (-1 for a root) and returns its index.
func (t *tracer) start(name string, parent int) int {
	t.cur = append(t.cur, span{Name: name, Op: t.op, Parent: parent, Start: t.now()})
	return len(t.cur) - 1
}

// end closes span i.
func (t *tracer) end(i int) { t.cur[i].End = t.now() }

// finish folds the current op into the samples: each span's self time
// is its duration less the time its children cover (calls here are
// sequential, so children never overlap).
func (t *tracer) finish() {
	child := make([]int64, len(t.cur))
	for _, s := range t.cur {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	var ladder, handler float64
	hasHandler := false
	for i, s := range t.cur {
		self := float64(s.End-s.Start-child[i]) / 1e3
		t.self[s.Name] = append(t.self[s.Name], self)
		if s.Name == spanHandler {
			handler += float64(s.End-s.Start) / 1e3
			hasHandler = true
		} else if s.Name != spanGen && t.inLadder(i) {
			ladder += self
		}
	}
	if hasHandler {
		t.ladder = append(t.ladder, ladder)
		t.handler = append(t.handler, handler)
	}
	t.ops++
	t.spans += int64(len(t.cur))
	if len(t.kept)+len(t.cur) <= maxKeptSpans {
		t.kept = append(t.kept, t.cur...)
	}
}

// inLadder reports whether span i lies under the op's "op" root.
func (t *tracer) inLadder(i int) bool {
	for t.cur[i].Parent >= 0 {
		i = t.cur[i].Parent
	}
	return t.cur[i].Name == spanOp
}

// Span names that are not layers of their own.
const (
	spanOp      = "op"             // root of the layer ladder of one op
	spanGen     = "driver.gen"     // input generation, not server work
	spanHandler = "server.handler" // the same op through Server.Handler
)

// record adds one sample measured outside a span (a per-line average).
func (t *tracer) record(name string, v float64) { t.self[name] = append(t.self[name], v) }

// layerStat summarizes one span name's self times.
type layerStat struct {
	name     string
	n        int
	med, p99 float64
	total    float64
}

func (t *tracer) stats() []layerStat {
	var out []layerStat
	for name, xs := range t.self {
		s := sortedCopy(xs)
		st := layerStat{name: name, n: len(s), med: median(s)}
		st.p99, _ = percentile(s, 99)
		for _, v := range s {
			st.total += v
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].total > out[j].total })
	return out
}

// write saves the kept spans as JSON lines under dir.
func (t *tracer) write(dir, file string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.kept {
		if err := enc.Encode(&t.kept[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanCostNS measures what one start/end pair costs, the tracing
// overhead per span.
func spanCostNS() float64 {
	t := newTracer()
	const n = 20000
	t.begin()
	a := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.start("calibrate", -1))
		if len(t.cur) > 256 {
			t.cur = t.cur[:0]
		}
	}
	return float64(time.Since(a).Nanoseconds()) / n
}

// describe renders one layer line of the report.
func (s layerStat) describe(share float64) string {
	return fmt.Sprintf("%-26s n=%-8d self median %9.3f us  p99 %9.3f us  share of self time %5.1f%%",
		s.name, s.n, s.med, s.p99, share*100)
}
