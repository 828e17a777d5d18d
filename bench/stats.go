package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest element with at least p percent of the sample at or
// below it, i.e. rank ceil(n*p/100). The rank is computed in integer
// arithmetic on p scaled by 1000 so that an exact n*p/100 boundary (p=50
// of 4 samples is rank 2, not 3) never rounds up through float error —
// the boundary core.LatencyPercentile once got wrong. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankIndex(len(s), p)]
}

// rankIndex is the zero-based nearest-rank index for n samples.
func rankIndex(n int, p float64) int {
	pm := int64(math.Round(p * 1000)) // p in thousandths of a percent
	rank := (int64(n)*pm + 99_999) / 100_000
	if rank < 1 {
		rank = 1
	}
	if rank > int64(n) {
		rank = int64(n)
	}
	return int(rank - 1)
}

// tailPercentile picks the highest of the usual tail percentiles that
// still has at least ten samples beyond it, so a reported tail is never a
// single outlier; below 40 samples it degrades to the median.
func tailPercentile(n int) float64 {
	for _, permille := range []int{999, 990, 950, 900, 750} {
		if n*(1000-permille) >= 10*1000 {
			return float64(permille) / 10
		}
	}
	return 50
}

// median is the mean of the two middle elements for even n (the
// statistics.median convention the calibration spread is defined in).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile with the exclusive
// method of Python's statistics.quantiles(xs, n=4), which is what the
// acceptance procedure computes spreads with. It needs two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 { // k-th of 4 cut points
		n := len(s)
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise figure every bound is judged against.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// withinBound reports whether a calibration sample is steady enough for
// its metric's regression bound.
func withinBound(xs []float64, bound float64) bool { return spread(xs) <= bound }

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }

// durationsIn converts a sample of durations to multiples of unit.
func durationsIn(unit time.Duration, ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// durationsMS converts a latency sample to milliseconds.
func durationsMS(ds []time.Duration) []float64 { return durationsIn(time.Millisecond, ds) }

// ratio is a/b with 0 for an empty denominator (a layer that never ran).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
