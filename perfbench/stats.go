package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is the number of samples a reported percentile must have beyond
// it: a p99 over fewer than 1000 samples rests on a handful of outliers.
const minTail = 10

// percentile returns the q-quantile (0 < q < 1) of samples by the
// nearest-rank rule, refusing when fewer than minTail samples lie beyond
// it. samples is sorted in place.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %v out of (0,1)", q)
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if n == 0 || n-rank < minTail {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d samples",
			q*100, minTail, n)
	}
	sort.Float64s(samples)
	return samples[rank-1], nil
}

// median returns the middle value (mean of the middle pair), 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio divides, returning 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
