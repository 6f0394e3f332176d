package main

import (
	"math"
	"sort"
	"time"
)

// Metric is one reported number. N is the sample count behind a latency
// or a ratio's denominator (0 when the metric is a plain count).
type Metric struct {
	Value float64
	Unit  string
	N     int
}

// percentile returns the p-quantile (0 <= p <= 1) of an ascending slice by
// the nearest-rank rule, 0 for an empty slice.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// highestPercentile returns the highest of p90, p99, p99.9 and p99.99 that
// still has at least ten of n samples beyond it, and false when even p90 has
// fewer: beyond that point a "percentile" is one unlucky sample.
func highestPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, oneIn := range []int{10, 100, 1000, 10000} {
		if n/oneIn >= 10 {
			best, ok = 1-1/float64(oneIn), true
		}
	}
	return best, ok
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quartiles returns the first quartile, median and third quartile of values
// with the "exclusive" method of Python's statistics.quantiles(values, n=4),
// which is what the acceptance check of the benchmark contract uses.
func quartiles(values []float64) (q1, med, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return v[0], v[0], v[0]
	}
	at := func(i int) float64 {
		// Position i*(n+1)/4, 1-based, linearly interpolated and clamped.
		pos := float64(i) * float64(n+1) / 4
		lo := int(pos)
		frac := pos - float64(lo)
		if lo < 1 {
			return v[0]
		}
		if lo >= n {
			return v[n-1]
		}
		return v[lo-1] + frac*(v[lo]-v[lo-1])
	}
	return at(1), at(2), at(3)
}

// ratio divides, returning 0 for an empty denominator so that a workload on
// which a layer did no work reports 0 and not NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
