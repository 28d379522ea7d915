package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile reads the q-quantile (0..1) of an ascending slice by the
// nearest-rank rule; 0 for an empty slice.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median of an unsorted slice (mean of the two middle values when the
// count is even); 0 for an empty slice.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// tailPercentiles are the candidates for the reported tail, highest
// first, with the share of samples beyond each in parts per thousand.
var tailPercentiles = []struct {
	p      float64
	beyond int
}{{99.9, 1}, {99, 10}, {95, 50}, {90, 100}, {75, 250}}

// tailPercentile picks the highest percentile that still has at least
// ten samples beyond it — a p99 over 200 samples rests on two points
// and moves with each of them — and never one beyond that. With fewer
// than 40 samples no candidate qualifies and the median is returned
// (p = 50).
func tailPercentile(n int) float64 {
	for _, c := range tailPercentiles {
		if n*c.beyond >= 10*1000 {
			return c.p
		}
	}
	return 50
}

// tail returns the tail percentile of xs and which percentile it is.
func tail(xs []float64) (value, p float64) {
	p = tailPercentile(len(xs))
	return quantile(sorted(xs), p/100), p
}

// ratio is a/b, or 0 when b is 0 (a missing base must not read as a
// perfect score or a division fault).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
