// Package stats provides the descriptive statistics used by the result
// analysis: Pearson correlation (Section 6.3.2's cross-log comparison),
// means and ranges.
package stats

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Pearson returns the Pearson correlation coefficient of two equal-length
// samples. It errors on mismatched lengths, fewer than two points, or a
// zero-variance side.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: length mismatch %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return 0, fmt.Errorf("stats: need at least 2 points, have %d", len(xs))
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, fmt.Errorf("stats: zero variance")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// MinMax returns the smallest and largest values. It panics on empty input.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		panic("stats: MinMax of empty slice")
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}
