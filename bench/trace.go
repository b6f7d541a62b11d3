package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Benchmark-side tracing: spans around the benchmark's own calls into
// each layer, kept in memory and written out when the run ends.  Spans
// inside the program are a later change (ROADMAP item 1).

// sampleEvery is the op sampling stride of the traced run.
const sampleEvery = 64

// span is one timed interval.  Spans of one op share Op; Parent is the
// ID of the span that caused this one (0 for a root).
type span struct {
	Name   string `json:"name"`
	Op     uint64 `json:"op"`
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder collects the spans of one goroutine, so recording takes no
// lock.  It stops recording, and counts the loss, when its preallocated
// array is full.
type recorder struct {
	base    time.Time
	prefix  uint32 // recorder index in the high byte keeps IDs unique
	spans   []span
	dropped int
}

// tracer owns the recorders of one traced run.
type tracer struct {
	base time.Time
	recs []*recorder
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// recorder returns a new recorder; call it before the goroutine starts.
func (t *tracer) recorder() *recorder {
	r := &recorder{
		base:   t.base,
		prefix: uint32(len(t.recs)+1) << 24,
		spans:  make([]span, 0, 1<<18),
	}
	t.recs = append(t.recs, r)
	return r
}

// sampled reports whether op is one the traced run records; a nil
// recorder (the untraced run) samples nothing.
func (r *recorder) sampled(op uint64) bool {
	return r != nil && op%sampleEvery == 0
}

// begin opens a span and returns its ID: 0 when the array is full, or
// on a nil recorder, so ops few enough to record every one (rounds) need
// no check of their own.
func (r *recorder) begin(name string, op uint64, parent uint32) uint32 {
	if r == nil {
		return 0
	}
	if len(r.spans) == cap(r.spans) {
		r.dropped++
		return 0
	}
	id := r.prefix | uint32(len(r.spans)+1)
	r.spans = append(r.spans, span{Name: name, Op: op, ID: id, Parent: parent, Start: int64(time.Since(r.base))})
	return id
}

// end closes the span begin returned.
func (r *recorder) end(id uint32) {
	if r != nil && id != 0 {
		r.spans[id&0xFFFFFF-1].End = int64(time.Since(r.base))
	}
}

// step closes span prev (if any) and opens the next sibling: the usual
// shape of an op is a sequence of back-to-back child spans.
func (r *recorder) step(prev uint32, name string, op uint64, parent uint32) uint32 {
	r.end(prev)
	return r.begin(name, op, parent)
}

func (t *tracer) all() []span {
	var out []span
	for _, r := range t.recs {
		out = append(out, r.spans...)
	}
	return out
}

// write stores the spans as JSON lines in dir/trace-<workload>.jsonl.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.all() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// spanStat aggregates the spans of one name.  Self time is a span's
// duration minus the part its child spans cover.
type spanStat struct {
	Name   string
	Count  int
	MeanUs float64
	SelfUs float64
}

func (t *tracer) stats() []spanStat {
	spans := t.all()
	children := make(map[uint32]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	type acc struct {
		n           int
		total, self int64
		first       int64
	}
	byName := map[string]*acc{}
	for _, s := range spans {
		a := byName[s.Name]
		if a == nil {
			a = &acc{first: s.Start}
			byName[s.Name] = a
		}
		a.n++
		a.total += s.End - s.Start
		a.self += s.End - s.Start - children[s.ID]
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	// Order of first appearance reads as the op's own sequence.
	sort.Slice(names, func(i, j int) bool { return byName[names[i]].first < byName[names[j]].first })
	out := make([]spanStat, 0, len(names))
	for _, name := range names {
		a := byName[name]
		out = append(out, spanStat{
			Name:   name,
			Count:  a.n,
			MeanUs: float64(a.total) / float64(a.n) / 1e3,
			SelfUs: float64(a.self) / float64(a.n) / 1e3,
		})
	}
	return out
}

func (t *tracer) dropped() int {
	n := 0
	for _, r := range t.recs {
		n += r.dropped
	}
	return n
}
