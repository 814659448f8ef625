package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the middle pair for an
// even count), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailMinBeyond is how many samples must lie beyond a reported tail
// value: a tail read off fewer than ten larger samples is noise.
const tailMinBeyond = 10

// tailLadder are the percentiles a tail is reported at. A run reports
// the highest one with at least tailMinBeyond samples beyond it, so
// runs of 100 to 999 samples all report p90 and stay comparable
// however many samples the host's speed let them take.
var tailLadder = []float64{99.9, 99, 90, 50}

// tailMinSamples is the sample count from which the tail is p90.
const tailMinSamples = 100

// tail returns the nearest-rank value of xs at the highest ladder
// percentile with at least tailMinBeyond samples beyond it, and that
// percentile. With too few samples for any rung it returns the maximum
// and ok=false, so callers can say the tail is unresolved.
func tail(xs []float64) (v, pct float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0, false
	}
	s := sortedCopy(xs)
	for _, q := range tailLadder {
		rank := int(math.Ceil(q / 100 * float64(n)))
		if n-rank >= tailMinBeyond {
			return s[rank-1], q, true
		}
	}
	return s[n-1], 100, false
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
