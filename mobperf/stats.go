package main

import (
	"math"
	"sort"
)

// tailCandidates are the percentiles a tail metric may fall back to, highest
// first. A tail is reported at the highest one that has at least minBeyond
// samples above it, so a short run never passes off its maximum as a p99.
var tailCandidates = []float64{99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailPercentile returns the highest percentile in tailCandidates, capped
// at limit, that leaves at least minBeyond of n samples beyond it. ok is
// false when even the median does not; the median is returned then.
func tailPercentile(n int, limit float64) (p float64, ok bool) {
	for _, c := range tailCandidates {
		if c > limit {
			continue
		}
		if n-rank(n, c) >= minBeyond {
			return c, true
		}
	}
	return 50, false
}

// rank is the 1-based nearest-rank position of percentile p among n
// sorted samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank percentile p of sorted (0 when
// empty).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// dist is a sorted sample of one timing.
type dist []float64

func newDist(xs []float64) dist {
	d := append(dist(nil), xs...)
	sort.Float64s(d)
	return d
}

func (d dist) p50() float64 { return percentile(d, 50) }

// tail returns the percentile the sample supports, at most limit, with
// the percentile used.
func (d dist) tail(limit float64) (value, p float64, ok bool) {
	p, ok = tailPercentile(len(d), limit)
	return percentile(d, p), p, ok
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
