package main

import "slices"

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty slice.  xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	mid := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[mid]
	}
	return (xs[mid-1] + xs[mid]) / 2
}

// quantile returns the q-quantile (nearest rank) of sorted ns samples.
func quantile(sorted []int32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

// latencies summarises per-op latency samples (ns) cut into windows:
// cuts[i] is the sample count at the end of window i.  p50 is the median
// of every sample; p99 is the median over windows of each window's own
// p99, which repeats far better than the p99 of the whole run because
// one stalled window moves one value, not the tail of all of them.
func latencies(samples []int32, cuts []int) (p50us, p99us float64) {
	var p99s []float64
	prev := 0
	for _, c := range cuts {
		if w := samples[prev:c]; len(w) > 0 {
			slices.Sort(w)
			p99s = append(p99s, quantile(w, 0.99)/1e3)
		}
		prev = c
	}
	slices.Sort(samples)
	return quantile(samples, 0.50) / 1e3, median(p99s)
}
