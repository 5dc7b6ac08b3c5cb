package ml

import (
	"math"
	"slices"
	"testing"

	"repro/internal/job"
	"repro/internal/rng"
)

// The learning path must stay bit-identical to the straightforward
// formulation, because the simulator's golden outputs depend on every
// prediction's bits. The tests here pin each fast path against that
// formulation directly, on inputs chosen to break a reordered sum.

// refPredict is the dot product w·Φ the fused Step and Basis.Dot
// replaced: every nonzero coordinate, in order.
func refPredict(o *NAG, phi []float64) float64 {
	var dot float64
	for i, xi := range phi {
		if xi != 0 {
			dot += o.w[i] * xi
		}
	}
	return dot
}

// refStep is the NAG update with the prediction summed in a pass of its
// own, after the scale pass: the reference the fused Step must match.
func refStep(o *NAG, x []float64, grad func(pred float64) float64) float64 {
	o.t++
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		a := math.Abs(xi)
		if a > o.s[i] {
			if o.s[i] > 0 {
				r := o.s[i] / a
				o.w[i] *= r * r
			}
			o.s[i] = a
		}
		o.n += (xi / o.s[i]) * (xi / o.s[i])
	}
	pred := refPredict(o, x)
	if o.n == 0 {
		return pred
	}
	dLdPred := grad(pred)
	scale := o.eta * o.etaScale * math.Sqrt(o.t/o.n)
	for i, xi := range x {
		if xi == 0 && o.w[i] == 0 {
			continue
		}
		gi := dLdPred*xi + o.lambda*o.w[i]
		if gi == 0 {
			continue
		}
		o.g2[i] += gi * gi
		si := o.s[i]
		if si == 0 {
			si = 1
		}
		o.w[i] -= scale * gi / (si * math.Sqrt(o.g2[i]))
	}
	return pred
}

func cloneNAG(o *NAG) *NAG {
	c := *o
	c.w, c.s, c.g2 = slices.Clone(o.w), slices.Clone(o.s), slices.Clone(o.g2)
	return &c
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// wideValue draws a value whose magnitude spans 1e-6..1e7, either sign.
func wideValue(src *rng.Source) float64 {
	v := math.Pow(10, -6+13*src.Float64())
	if src.Intn(2) == 0 {
		v = -v
	}
	return v
}

func TestStepMatchesTwoPassReference(t *testing.T) {
	const dim, steps = 32, 3000
	for _, lambda := range []float64{0, 1e-6} {
		src := rng.New(11)
		got := NewNAG(dim, 1.0, lambda)
		want := cloneNAG(got)
		x := make([]float64, dim)
		rescales := 0
		for step := 0; step < steps; step++ {
			if step%97 == 0 {
				scale := math.Pow(10, 5*src.Float64())
				got.SetTargetScale(scale)
				want.SetTargetScale(scale)
			}
			for i := range x {
				switch r := src.Float64(); {
				case r < 0.3:
					x[i] = 0
				case r < 0.35 && got.s[i] > 0:
					// Just past the coordinate's largest magnitude: a
					// rescale of a weight that is already trained.
					x[i] = got.s[i] * (1 + 0.1*src.Float64())
					if src.Intn(2) == 0 {
						x[i] = -x[i]
					}
				default:
					x[i] = wideValue(src)
				}
				if x[i] != 0 && math.Abs(x[i]) > got.s[i] && got.w[i] != 0 {
					rescales++
				}
			}
			y := math.Pow(10, 5*src.Float64())
			grad := func(pred float64) float64 { return math.Max(-1e6, math.Min(1e6, 2*(pred-y))) }
			pg, pw := got.Step(x, grad), refStep(want, x, grad)
			if !sameBits(pg, pw) {
				t.Fatalf("λ=%g step %d: prediction %v, two-pass reference %v", lambda, step, pg, pw)
			}
			for i := range x {
				if !sameBits(got.w[i], want.w[i]) || !sameBits(got.s[i], want.s[i]) || !sameBits(got.g2[i], want.g2[i]) {
					t.Fatalf("λ=%g step %d coordinate %d: (w, s, g2) = (%v, %v, %v), reference (%v, %v, %v)",
						lambda, step, i, got.w[i], got.s[i], got.g2[i], want.w[i], want.s[i], want.g2[i])
				}
			}
			if !sameBits(got.n, want.n) || !sameBits(got.t, want.t) {
				t.Fatalf("λ=%g step %d: (N, t) = (%v, %v), reference (%v, %v)", lambda, step, got.n, got.t, want.n, want.t)
			}
		}
		if rescales < steps {
			t.Fatalf("λ=%g: only %d rescales of trained weights; the inputs no longer exercise them", lambda, rescales)
		}
	}
}

func TestModelPredictMatchesExpandedDot(t *testing.T) {
	for _, degree := range []int{1, 2} {
		src := rng.New(uint64(40 + degree))
		cfg := DefaultConfig(ELoss)
		cfg.Degree = degree
		m := NewModel(cfg)
		check := func(x []float64) {
			t.Helper()
			got, want := m.Predict(x), refPredict(m.opt, m.basis.Expand(x))
			if !sameBits(got, want) {
				t.Fatalf("degree %d: Predict(%v) = %v, dot over Φ = %v", degree, x, got, want)
			}
		}
		x := make([]float64, FeatureCount)
		for round := 0; round < 500; round++ {
			for k := range m.opt.w {
				m.opt.w[k] = wideValue(src)
			}
			for i := range x {
				switch r := src.Float64(); {
				case r < 0.3:
					x[i] = 0
				case r < 0.4:
					x[i] = 1e-200 // squares and products with its peers underflow
				default:
					x[i] = wideValue(src)
				}
			}
			check(x)
		}

		// A product that underflows to zero is skipped like any zero
		// coordinate, even where its factors are not zero: an infinite
		// weight there would turn the sum into NaN.
		for i := range x {
			x[i] = wideValue(src)
		}
		x[3], x[7], x[11] = 1e-200, -1e-200, 0
		phi := m.basis.Expand(x)
		underflows := 0
		for k := range m.opt.w {
			m.opt.w[k] = wideValue(src)
			if phi[k] == 0 {
				m.opt.w[k] = math.Inf(1)
				if k > FeatureCount {
					underflows++
				}
			}
		}
		if degree == 2 && underflows == 0 {
			t.Fatal("no underflowed product in the crafted vector")
		}
		check(x)
		if p := m.Predict(x); math.IsNaN(p) || math.IsInf(p, 0) {
			t.Fatalf("degree %d: prediction %v picked up a skipped coordinate", degree, p)
		}
	}
}

// TestTrackerFeaturesIgnoreStartOrder: the running-set features sum
// integers, so every start order of a user's running jobs, and the
// reshuffle a finish leaves behind, gives the same bits.
func TestTrackerFeaturesIgnoreStartOrder(t *testing.T) {
	running := []*job.Job{
		{ID: 1, User: 9, Procs: 3, Start: 100, Started: true},
		{ID: 2, User: 9, Procs: 64, Start: 2500, Started: true},
		{ID: 3, User: 9, Procs: 1, Start: 40, Started: true},
		{ID: 4, User: 9, Procs: 17, Start: 777, Started: true},
		{ID: 5, User: 9, Procs: 8, Start: 3000, Started: true},
	}
	extra := &job.Job{ID: 6, User: 9, Procs: 5, Start: 1000, Started: true, Runtime: 900}
	probe := &job.Job{ID: 7, User: 9, Procs: 2, Request: 3600}
	features := func(order []int, extraAt int) [FeatureCount]float64 {
		tr := NewTracker()
		for k, i := range order {
			if k == extraAt {
				tr.OnStart(extra)
			}
			tr.OnStart(running[i])
		}
		tr.OnFinish(extra, 1900)
		var x [FeatureCount]float64
		tr.FillFeatures(&x, probe, 3500)
		return x
	}
	want := features([]int{0, 1, 2, 3, 4}, 0)
	if want[FeatJobsRunning] != 5 || want[FeatOccupiedResources] != 93 {
		t.Fatalf("running features %v", want)
	}
	order := []int{0, 1, 2, 3, 4}
	var permute func(k int)
	permute = func(k int) {
		if k == len(order) {
			for extraAt := range order {
				got := features(order, extraAt)
				for f := range got {
					if !sameBits(got[f], want[f]) {
						t.Fatalf("start order %v (extra job at %d): %s = %v, want %v",
							order, extraAt, FeatureNames[f], got[f], want[f])
					}
				}
			}
			return
		}
		for i := k; i < len(order); i++ {
			order[k], order[i] = order[i], order[k]
			permute(k + 1)
			order[k], order[i] = order[i], order[k]
		}
	}
	permute(0)
}

// TestTrackerCountsJobsSharingAnID: a live run may reuse an ID while its
// first holder runs; both holders are running jobs of the user.
func TestTrackerCountsJobsSharingAnID(t *testing.T) {
	tr := NewTracker()
	first := &job.Job{ID: 1, User: 4, Procs: 4, Start: 0, Started: true}
	second := &job.Job{ID: 1, User: 4, Procs: 2, Start: 10, Started: true}
	tr.OnStart(first)
	tr.OnStart(second)
	x := tr.Features(&job.Job{ID: 2, User: 4, Procs: 1, Request: 60}, 20)
	if x[FeatJobsRunning] != 2 || x[FeatOccupiedResources] != 6 {
		t.Fatalf("two holders of one ID: JobsRunning %v, OccupiedResources %v, want 2 and 6",
			x[FeatJobsRunning], x[FeatOccupiedResources])
	}
	tr.OnFinish(first, 30)
	x = tr.Features(&job.Job{ID: 3, User: 4, Procs: 1, Request: 60}, 40)
	if x[FeatJobsRunning] != 1 || x[FeatOccupiedResources] != 2 {
		t.Fatalf("after the first holder finished: JobsRunning %v, OccupiedResources %v, want 1 and 2",
			x[FeatJobsRunning], x[FeatOccupiedResources])
	}
}
