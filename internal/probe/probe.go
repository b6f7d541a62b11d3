// Package probe implements the lightweight time probes used for the
// paper's whitebox measurements (§5, Table 1).
//
// The original system read the CPU tick counter into reserved memory and
// computed medians over 100,000 samples offline.  Here a Point accumulates
// monotonic-clock durations and reports median, mean and standard
// deviation.  Probing is globally gated by an atomic flag so that the
// instrumented fast paths cost a single load when probes are off (the
// blackbox configuration).
package probe

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

var enabled atomic.Bool

// Enable turns sample collection on or off globally.
func Enable(on bool) { enabled.Store(on) }

// Enabled reports whether probes collect samples.  Instrumented code paths
// must check it before taking timestamps so that disabled probes cost
// nothing but this load.
func Enabled() bool { return enabled.Load() }

// DefaultCapacity bounds the samples kept per point; the paper used
// 100,000 calls per measurement.
const DefaultCapacity = 200_000

// Point is one named probe location.
type Point struct {
	name string
	mu   sync.Mutex
	buf  []time.Duration
	drop uint64 // samples discarded after the buffer filled
}

// Record adds one sample if probing is enabled and the buffer has room.
func (p *Point) Record(d time.Duration) {
	if !enabled.Load() {
		return
	}
	p.mu.Lock()
	if len(p.buf) < cap(p.buf) {
		p.buf = append(p.buf, d)
	} else {
		p.drop++
	}
	p.mu.Unlock()
}

// Since records the time elapsed from start; a convenience for
// `defer pt.Since(time.Now())`-style instrumentation.
func (p *Point) Since(start time.Time) { p.Record(time.Since(start)) }

// Name returns the probe's registered name.
func (p *Point) Name() string { return p.name }

// Reset discards all samples.
func (p *Point) Reset() {
	p.mu.Lock()
	p.buf = p.buf[:0]
	p.drop = 0
	p.mu.Unlock()
}

// Stats summarizes a point's samples.
type Stats struct {
	Name    string
	Count   int
	Dropped uint64
	Median  time.Duration
	Mean    time.Duration
	StdDev  time.Duration
	Min     time.Duration
	Max     time.Duration
}

// Stats computes the summary of the samples collected so far.
func (p *Point) Stats() Stats {
	p.mu.Lock()
	samples := append([]time.Duration(nil), p.buf...)
	drop := p.drop
	p.mu.Unlock()

	s := Stats{Name: p.name, Count: len(samples), Dropped: drop}
	if len(samples) == 0 {
		return s
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	s.Min = samples[0]
	s.Max = samples[len(samples)-1]
	if n := len(samples); n%2 == 1 {
		s.Median = samples[n/2]
	} else {
		s.Median = (samples[n/2-1] + samples[n/2]) / 2
	}
	var sum float64
	for _, d := range samples {
		sum += float64(d)
	}
	mean := sum / float64(len(samples))
	s.Mean = time.Duration(mean)
	var sq float64
	for _, d := range samples {
		diff := float64(d) - mean
		sq += diff * diff
	}
	s.StdDev = time.Duration(sqrt(sq / float64(len(samples))))
	return s
}

// sqrt avoids importing math for one call site; Newton iteration is plenty
// for reporting purposes.
func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 40; i++ {
		z = (z + x/z) / 2
	}
	return z
}

// Registry is a named collection of probe points.  The zero value is ready
// to use.
type Registry struct {
	mu     sync.Mutex
	points map[string]*Point
}

// Point returns the named probe, creating it (with DefaultCapacity) on
// first use.
func (r *Registry) Point(name string) *Point {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.points == nil {
		r.points = make(map[string]*Point)
	}
	p, ok := r.points[name]
	if !ok {
		p = &Point{name: name, buf: make([]time.Duration, 0, DefaultCapacity)}
		r.points[name] = p
	}
	return p
}

// Points returns all probes sorted by name.
func (r *Registry) Points() []*Point {
	r.mu.Lock()
	out := make([]*Point, 0, len(r.points))
	for _, p := range r.points {
		out = append(out, p)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Reset clears the samples of every registered probe.
func (r *Registry) Reset() {
	for _, p := range r.Points() {
		p.Reset()
	}
}

// Default is the process-wide registry used by the executive and the
// transports.
var Default = &Registry{}
