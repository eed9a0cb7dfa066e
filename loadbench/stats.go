package main

import (
	"math"
	"sort"
)

// minTail is the number of samples a reported tail percentile must
// leave beyond it: with fewer, the percentile is a single sample's
// noise rather than a property of the run.
const minTail = 10

// dist summarizes one latency sample set: the median, the tail
// percentile actually reported and the sample count behind both.
type dist struct {
	N       int
	P50     float64
	Tail    float64
	TailPct float64 // percentile reported as Tail, in percent
}

// summarize reports the median and the highest percentile at or below
// want (a fraction, 0.99 for p99) that still has minTail samples
// beyond it. xs is sorted in place. With no samples both are NaN.
func summarize(xs []float64, want float64) dist {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return dist{P50: math.NaN(), Tail: math.NaN()}
	}
	idx := tailIndex(n, want)
	return dist{
		N:       n,
		P50:     xs[rankIndex(n, 0.5)],
		Tail:    xs[idx],
		TailPct: 100 * float64(idx+1) / float64(n),
	}
}

// median is the nearest-rank median of xs (sorted in place), the one
// median rule every metric uses; NaN when xs is empty.
func median(xs []float64) float64 { return summarize(xs, 0.5).P50 }

// rankIndex is the nearest-rank index of quantile q in n sorted
// samples.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// tailIndex is the nearest-rank index of quantile want, lowered until
// at least minTail samples lie beyond it. Below minTail+1 samples no
// index qualifies and the median's index is returned.
func tailIndex(n int, want float64) int {
	i := rankIndex(n, want)
	if hi := n - 1 - minTail; i > hi {
		i = hi
	}
	if m := rankIndex(n, 0.5); i < m {
		i = m
	}
	return i
}
