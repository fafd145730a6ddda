package main

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

var errTooFewSamples = errors.New("too few samples")

// percentile returns the nearest-rank p-quantile (0 < p < 1) of
// samples. It refuses when fewer than minTail samples lie beyond it: p95
// needs 200 samples, p99 1000.
func percentile(samples []float64, p float64) (float64, error) {
	s := slices.Sorted(slices.Values(samples))
	rank := int(math.Ceil(p*float64(len(s)) - 1e-9))
	if rank < 1 || len(s)-rank < minTail {
		return 0, fmt.Errorf("%w: %d leave %d beyond p%g, %d are needed", errTooFewSamples, len(s), len(s)-rank, 100*p, minTail)
	}
	return s[rank-1], nil
}

// median returns the median of xs, or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
