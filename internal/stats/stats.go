// Package stats provides the small numeric helpers the experiment harness
// needs: geometric and arithmetic means, normalization, extrema and
// medians. stream.go adds online accumulators, Student-t intervals and
// windowed emission.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Geomean returns the geometric mean of xs. It panics on empty input or on
// non-positive values, which always indicate a harness bug.
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: geomean of empty slice")
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: geomean of non-positive value %v", x))
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Mean returns the arithmetic mean of xs. It panics on empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: mean of empty slice")
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Normalize divides each element by base, returning a new slice.
func Normalize(xs []float64, base float64) []float64 {
	if base == 0 {
		panic("stats: normalize by zero")
	}
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x / base
	}
	return out
}

// Min returns the smallest element of xs. It panics on empty input.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs. It panics on empty input.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Median returns the median of xs (the mean of the middle pair for even
// lengths). It panics on empty input.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: median of empty slice")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
