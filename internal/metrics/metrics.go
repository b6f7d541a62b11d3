// Package metrics implements the cluster-wide metrics layer of the
// paper's system management dimension (§2, third requirement): every
// component must be observable "according to one common scheme".  A
// Registry holds named counters, gauges and bounded latency histograms;
// the executive owns one per node and exports it two ways — over ordinary
// I2O frames (ExecMetricsGet, so any node can scrape any other through
// the same message fabric that carries data) and, optionally, over HTTP
// in Prometheus text or expvar-style JSON form (cmd/xdaqd -metrics).
//
// The hot path is lock-free: counters and gauges are single atomic
// operations, histogram observation is three.  Timestamp-taking call
// sites (queue wait time, poll-scan duration) follow the same gating
// discipline as package probe: they check Enabled() first, so with
// metrics timing disabled the instrumented paths cost one atomic load —
// preserving the payload-independent framework overhead of figure 6.
package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

var enabled atomic.Bool

// Enable turns timing collection on or off globally.  Counters and gauges
// are always live (they are single atomic adds); Enable gates only the
// call sites that would need to read the clock, such as queue wait-time
// and poll-scan duration histograms.
func Enable(on bool) { enabled.Store(on) }

// Enabled reports whether timing call sites should take timestamps.
// Instrumented code must check it before calling time.Now so that the
// disabled configuration costs nothing but this load.
func Enabled() bool { return enabled.Load() }

// Counter is a monotonically increasing event count.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Reset zeroes the counter (ExecSysClear semantics).
func (c *Counter) Reset() { c.v.Store(0) }

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Add adjusts the value by n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram bucket layout: exponential bounds from 1 µs doubling up to
// ~134 ms, plus an overflow bucket.  Durations are recorded in
// nanoseconds; the bounds cover everything from a sub-microsecond
// dispatch to a stalled multi-millisecond poll scan.
const (
	numBuckets    = 18
	minBucketNano = 1_000 // 1 µs
)

// bucketBound returns the inclusive upper bound (ns) of bucket i;
// the last bucket is unbounded.
func bucketBound(i int) int64 {
	return minBucketNano << uint(i)
}

// Histogram is a bounded latency histogram with an atomic hot path:
// Observe is two counter adds and one bucket add, no locks, no
// allocation, constant memory regardless of sample volume (unlike
// probe.Point, which stores raw samples and is meant for offline
// whitebox analysis).
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64 // nanoseconds
	buckets [numBuckets + 1]atomic.Uint64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sum.Add(uint64(ns))
	idx := numBuckets // overflow
	for i := 0; i < numBuckets; i++ {
		if ns <= bucketBound(i) {
			idx = i
			break
		}
	}
	h.buckets[idx].Add(1)
}

// Since observes the time elapsed from start; a convenience mirroring
// probe.Point.Since.
func (h *Histogram) Since(start time.Time) { h.Observe(time.Since(start)) }

// HistogramSnapshot is a consistent-enough copy of a histogram for
// reporting.  Buckets holds per-bucket (not cumulative) counts; the
// bucket i upper bound is Bound(i), and the final bucket is overflow.
type HistogramSnapshot struct {
	Count    uint64
	SumNanos uint64
	Buckets  [numBuckets + 1]uint64
}

// NumBuckets is the number of bounded buckets (the snapshot carries one
// extra overflow bucket).
const NumBuckets = numBuckets

// Bound returns the upper bound in nanoseconds of bounded bucket i.
func Bound(i int) int64 { return bucketBound(i) }

// Snapshot copies the histogram's state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.Count = h.count.Load()
	s.SumNanos = h.sum.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Quantile returns an upper-bound estimate (ns) of the q-quantile
// (0 < q <= 1): the bound of the bucket in which that rank falls.  The
// overflow bucket reports twice the largest bounded bound.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i := 0; i <= numBuckets; i++ {
		seen += s.Buckets[i]
		if seen >= rank {
			if i == numBuckets {
				return 2 * bucketBound(numBuckets-1)
			}
			return bucketBound(i)
		}
	}
	return 2 * bucketBound(numBuckets-1)
}

// Kind tags a sample in a registry snapshot.
type Kind int

const (
	// KindCounter is a monotonically increasing count.
	KindCounter Kind = iota

	// KindGauge is an instantaneous value (including sampled funcs).
	KindGauge

	// KindHistogram is a latency distribution.
	KindHistogram
)

// Sample is one named metric in a snapshot.
type Sample struct {
	Name  string
	Kind  Kind
	Count uint64             // KindCounter
	Value int64              // KindGauge
	Histo *HistogramSnapshot // KindHistogram
}

// Registry is a named collection of metrics.  The zero value is ready to
// use; the executive creates one per node so that multi-node processes
// export per-node numbers.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	funcs    map[string][]*func() int64 // a sampled gauge reads the sum of its terms
	histos   map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Default is the process-wide registry used by components created outside
// an executive's scope (standalone transports, tests).
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters == nil {
		r.counters = make(map[string]*Counter)
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gauges == nil {
		r.gauges = make(map[string]*Gauge)
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Func registers (or replaces) a sampled gauge: fn is called at snapshot
// time.  Use it to surface values a subsystem already maintains — queue
// depths, pool statistics — without adding a second counter to its hot
// path.
func (r *Registry) Func(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.funcs == nil {
		r.funcs = make(map[string][]*func() int64)
	}
	r.funcs[name] = []*func() int64{&fn}
}

// AddFunc adds fn as one more term of the sampled gauge name, which reads
// the sum of its terms, and returns a function that takes the term out
// again.  Use it where several instances of one component share a registry
// — eight readout units plugged into one node — and the name stands for all
// of them.
func (r *Registry) AddFunc(name string, fn func() int64) (remove func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.funcs == nil {
		r.funcs = make(map[string][]*func() int64)
	}
	term := &fn
	r.funcs[name] = append(r.funcs[name], term)
	return func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		// A fresh slice: Snapshot may be summing the old one outside the lock.
		var kept []*func() int64
		for _, t := range r.funcs[name] {
			if t != term {
				kept = append(kept, t)
			}
		}
		if r.funcs[name] = kept; kept == nil {
			delete(r.funcs, name)
		}
	}
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.histos == nil {
		r.histos = make(map[string]*Histogram)
	}
	h, ok := r.histos[name]
	if !ok {
		h = &Histogram{}
		r.histos[name] = h
	}
	return h
}

// Snapshot returns every metric's current value, sorted by name.  Sampled
// funcs are evaluated here; a panicking func yields zero rather than
// taking the scrape down.
func (r *Registry) Snapshot() []Sample {
	r.mu.Lock()
	out := make([]Sample, 0, len(r.counters)+len(r.gauges)+len(r.funcs)+len(r.histos))
	for name, c := range r.counters {
		out = append(out, Sample{Name: name, Kind: KindCounter, Count: c.Value()})
	}
	for name, g := range r.gauges {
		out = append(out, Sample{Name: name, Kind: KindGauge, Value: g.Value()})
	}
	funcs := make(map[string][]*func() int64, len(r.funcs))
	for name, terms := range r.funcs {
		funcs[name] = terms
	}
	histos := make(map[string]*Histogram, len(r.histos))
	for name, h := range r.histos {
		histos[name] = h
	}
	r.mu.Unlock()

	for name, terms := range funcs {
		var v int64
		for _, fn := range terms {
			v += safeCall(*fn)
		}
		out = append(out, Sample{Name: name, Kind: KindGauge, Value: v})
	}
	for name, h := range histos {
		s := h.Snapshot()
		out = append(out, Sample{Name: name, Kind: KindHistogram, Histo: &s})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func safeCall(fn func() int64) (v int64) {
	defer func() { _ = recover() }()
	return fn()
}
