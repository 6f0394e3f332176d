// Package metrics provides latency histograms, CDF extraction, and windowed
// throughput timelines used by the benchmark harness to reproduce the
// figures of the Multi-Ring Paxos paper (MIDDLEWARE 2014).
//
// The histogram is log-bucketed (HDR-style): sub-microsecond resolution at
// the low end, ~2% relative error at the high end, fixed memory, and safe
// for concurrent recording.
package metrics

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// bucketCount covers latencies from 1µs to ~1000s with 64 buckets per
// power of two of microseconds.
const (
	subBuckets  = 32
	maxExponent = 31 // 2^31 µs ≈ 2147 s
	bucketCount = subBuckets * maxExponent
)

// Histogram records durations into log-spaced buckets. The zero value is
// ready to use. All methods are safe for concurrent use.
type Histogram struct {
	mu      sync.Mutex
	buckets [bucketCount]uint64
	count   uint64
	sum     time.Duration
	min     time.Duration
	max     time.Duration
}

// bucketIndex maps a duration to its bucket.
func bucketIndex(d time.Duration) int {
	us := d.Microseconds()
	if us < 1 {
		us = 1
	}
	exp := 63 - leadingZeros(uint64(us))
	if exp >= maxExponent {
		return bucketCount - 1
	}
	// Position within the power-of-two range, scaled to subBuckets.
	base := uint64(1) << uint(exp)
	frac := us - int64(base)
	sub := int(uint64(frac) * subBuckets / base)
	if sub >= subBuckets {
		sub = subBuckets - 1
	}
	return exp*subBuckets + sub
}

// bucketValue returns a representative duration (upper edge) for a bucket.
func bucketValue(i int) time.Duration {
	exp := i / subBuckets
	sub := i % subBuckets
	base := uint64(1) << uint(exp)
	us := base + (base*uint64(sub+1))/subBuckets
	return time.Duration(us) * time.Microsecond
}

func leadingZeros(x uint64) int {
	n := 0
	if x == 0 {
		return 64
	}
	for x&(1<<63) == 0 {
		x <<= 1
		n++
	}
	return n
}

// Record adds one observation.
func (h *Histogram) Record(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.buckets[bucketIndex(d)]++
	h.count++
	h.sum += d
	if h.count == 1 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the average of recorded observations (0 if empty).
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Min returns the smallest recorded observation (0 if empty).
func (h *Histogram) Min() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.min
}

// Max returns the largest recorded observation (0 if empty).
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Quantile returns the latency at quantile q in [0,1]. It returns 0 when the
// histogram is empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(h.count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i := 0; i < bucketCount; i++ {
		cum += h.buckets[i]
		if cum >= target {
			return bucketValue(i)
		}
	}
	return h.max
}

// CDFPoint is a single (latency, cumulative fraction) pair.
type CDFPoint struct {
	Latency  time.Duration
	Fraction float64
}

// CDF extracts the cumulative distribution as a series of points, one per
// non-empty bucket, suitable for plotting (paper Figures 3, 6, 7).
func (h *Histogram) CDF() []CDFPoint {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return nil
	}
	var pts []CDFPoint
	var cum uint64
	for i := 0; i < bucketCount; i++ {
		if h.buckets[i] == 0 {
			continue
		}
		cum += h.buckets[i]
		pts = append(pts, CDFPoint{
			Latency:  bucketValue(i),
			Fraction: float64(cum) / float64(h.count),
		})
	}
	return pts
}

// FractionBelow returns the fraction of observations at or below d.
func (h *Histogram) FractionBelow(d time.Duration) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	idx := bucketIndex(d)
	var cum uint64
	for i := 0; i <= idx; i++ {
		cum += h.buckets[i]
	}
	return float64(cum) / float64(h.count)
}

// Snapshot returns an immutable copy of the histogram.
func (h *Histogram) Snapshot() *Histogram {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := &Histogram{
		count: h.count,
		sum:   h.sum,
		min:   h.min,
		max:   h.max,
	}
	s.buckets = h.buckets
	return s
}

// Merge adds all observations of other into h.
func (h *Histogram) Merge(other *Histogram) {
	o := other.Snapshot()
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
	if o.count > 0 {
		if h.count == 0 || o.min < h.min {
			h.min = o.min
		}
		if o.max > h.max {
			h.max = o.max
		}
	}
	h.count += o.count
	h.sum += o.sum
}

// String summarizes the histogram.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		h.Count(), h.Mean(), h.Quantile(0.50), h.Quantile(0.99), h.Max())
}
