package main

import (
	"fmt"
	"time"
)

// setupRepeats is how many times an untraced run sets its workload up;
// setup_s is the median.
const setupRepeats = 3

// value is one reported metric.
type value struct {
	Name  string
	Value float64
	Unit  string
}

// result is what one run of one workload reports.
type result struct {
	Workload  string
	Traced    bool
	Attempted uint64
	Failed    uint64
	Values    []value
	Notes     []string
	Spans     []spanStat
}

// get returns the named value, 0 when the run did not report it.
func (r *result) get(name string) float64 {
	for _, v := range r.Values {
		if v.Name == name {
			return v.Value
		}
	}
	return 0
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// runUntraced measures the end-to-end metrics with tracing and metrics
// timing off.  The workload is set up setupRepeats times, and each rig
// is measured for its share of d: a number that comes from three
// independently built rigs is less hostage to one connection's or one
// heap's luck than a number from one.
func runUntraced(spec workloadSpec, cfg config, d time.Duration) (result, error) {
	res := result{Workload: spec.Name}
	var all measured
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		m, took, err := setupAndMeasure(spec, cfg, d/setupRepeats)
		if err != nil {
			return res, err
		}
		setups = append(setups, took.Seconds())
		all.merge(m)
	}
	res.Attempted, res.Failed = all.attempted, all.failed
	p50, p99 := latencies(all.lat, all.cuts)
	res.Values = []value{
		{"setup_s", median(setups), "s"},
		{"ops_per_s", all.opsPerS(), "1/s"},
		{"op_p50_us", p50, "us"},
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("op=%s ops=%d latency_samples=%d windows=%d setups=%d op_p99_us=%.3f (not gated)",
			spec.Op, all.ops, len(all.lat), len(all.rates), len(setups), p99))
	return res, nil
}

func setupAndMeasure(spec workloadSpec, cfg config, d time.Duration) (measured, time.Duration, error) {
	w := spec.new(cfg)
	defer w.close()
	t0 := time.Now()
	if err := w.setup(); err != nil {
		return measured{}, 0, fmt.Errorf("%s: setup: %w", spec.Name, err)
	}
	took := time.Since(t0)
	m, err := w.measure(d, nil)
	if err != nil {
		return m, took, fmt.Errorf("%s: %w", spec.Name, err)
	}
	return m, took, nil
}
