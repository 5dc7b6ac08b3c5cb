package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean = %v", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("empty mean should be NaN")
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{10, 20, 30, 40}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-1) > 1e-12 {
		t.Fatalf("perfect correlation r = %v", r)
	}
	neg := []float64{40, 30, 20, 10}
	r, _ = Pearson(xs, neg)
	if math.Abs(r+1) > 1e-12 {
		t.Fatalf("perfect anti-correlation r = %v", r)
	}
}

func TestPearsonUncorrelated(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{1, -1, 1, -1}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r) > 0.5 {
		t.Fatalf("noise correlation r = %v too strong", r)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Pearson([]float64{1}, []float64{1}); err == nil {
		t.Fatal("single point accepted")
	}
	if _, err := Pearson([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Fatal("zero variance accepted")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 0})
	if lo != -1 || hi != 7 {
		t.Fatalf("MinMax = %v,%v", lo, hi)
	}
}

func TestQuickPearsonRange(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) < 3 {
			return true
		}
		for i := range xs {
			if math.IsNaN(xs[i]) || math.IsInf(xs[i], 0) {
				xs[i] = float64(i)
			}
			// Clamp into a range where products cannot overflow.
			xs[i] = math.Mod(xs[i], 1e12)
		}
		ys := make([]float64, len(xs))
		for i := range ys {
			ys[i] = xs[i]*2 + float64(i%3)
		}
		r, err := Pearson(xs, ys)
		if err != nil {
			return true // degenerate input
		}
		return r >= -1.0000001 && r <= 1.0000001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
