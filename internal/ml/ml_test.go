package ml

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/job"
	"repro/internal/rng"
)

func TestBasisDim(t *testing.T) {
	// The paper's w lives in R^(1+2n+C(n,2)).
	if d := BasisDim(20); d != 1+2*20+190 {
		t.Fatalf("BasisDim(20) = %d, want 231", d)
	}
	if d := BasisDim(2); d != 6 {
		t.Fatalf("BasisDim(2) = %d, want 6", d)
	}
}

func TestBasisExpand(t *testing.T) {
	b := NewBasis(3)
	out := b.Expand([]float64{2, 3, 5})
	want := []float64{1, 2, 3, 5, 4, 9, 25, 6, 10, 15}
	if len(out) != len(want) {
		t.Fatalf("dim %d, want %d", len(out), len(want))
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("Φ[%d] = %v, want %v (full: %v)", i, out[i], want[i], out)
		}
	}
}

func TestBasisDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	NewBasis(3).Expand([]float64{1, 2})
}

func TestLossFamilySize(t *testing.T) {
	losses := AllLosses()
	if len(losses) != 20 {
		t.Fatalf("loss family has %d members, want 20 (Table 5)", len(losses))
	}
	seen := make(map[string]bool)
	for _, l := range losses {
		if seen[l.Name()] {
			t.Fatalf("duplicate loss %s", l.Name())
		}
		seen[l.Name()] = true
	}
}

func TestELossShape(t *testing.T) {
	// E-Loss: squared over-prediction, linear under-prediction, so a
	// +1000s error must cost far more than a -1000s error.
	over := ELoss.Eval(4600, 3600, 8)
	under := ELoss.Eval(2600, 3600, 8)
	if over <= under {
		t.Fatalf("E-Loss should discourage over-prediction: over=%v under=%v", over, under)
	}
	if ratio := over / under; ratio < 100 {
		t.Fatalf("squared/linear ratio %v too small for 1000s error", ratio)
	}
}

func TestLossZeroErrorIsZero(t *testing.T) {
	for _, l := range AllLosses() {
		if got := l.Eval(500, 500, 4); got != 0 {
			t.Fatalf("%s: loss at zero error = %v", l.Name(), got)
		}
	}
}

func TestLossNonNegative(t *testing.T) {
	for _, l := range AllLosses() {
		for _, pred := range []float64{-100, 0, 10, 1e6} {
			if got := l.Eval(pred, 3600, 16); got < 0 {
				t.Fatalf("%s: negative loss %v at pred=%v", l.Name(), got, pred)
			}
		}
	}
}

func TestLossGradSign(t *testing.T) {
	for _, l := range AllLosses() {
		if g := l.Grad(5000, 3600, 8); g <= 0 {
			t.Fatalf("%s: over-prediction gradient %v should be positive", l.Name(), g)
		}
		if g := l.Grad(1000, 3600, 8); g >= 0 {
			t.Fatalf("%s: under-prediction gradient %v should be negative", l.Name(), g)
		}
	}
}

func TestLossGradMatchesFiniteDifference(t *testing.T) {
	const h = 1e-4
	for _, l := range AllLosses() {
		for _, pred := range []float64{100, 3000, 9000} {
			actual, q := 3600.0, 8.0
			// Skip the kink at pred == actual.
			if math.Abs(pred-actual) < 1 {
				continue
			}
			want := (l.Eval(pred+h, actual, q) - l.Eval(pred-h, actual, q)) / (2 * h)
			got := l.Grad(pred, actual, q)
			if math.Abs(got-want) > 1e-3*(1+math.Abs(want)) {
				t.Fatalf("%s at pred=%v: grad %v, finite-diff %v", l.Name(), pred, got, want)
			}
		}
	}
}

func TestGammaPositive(t *testing.T) {
	for _, w := range Weightings {
		for _, p := range []float64{0, 1, 60, 1e6} {
			for _, q := range []float64{0, 1, 100, 1e5} {
				if g := w.Gamma(p, q); g <= 0 {
					t.Fatalf("%s: gamma(%v,%v) = %v not positive", w, p, q, g)
				}
			}
		}
	}
}

func TestGammaOrientation(t *testing.T) {
	// Large-area weighting must rank a big job above a small one.
	big := WeightLargeArea.Gamma(1e5, 1000)
	small := WeightLargeArea.Gamma(60, 1)
	if big <= small {
		t.Fatalf("largearea gamma: big=%v <= small=%v", big, small)
	}
	// Small-area is the reverse.
	if WeightSmallArea.Gamma(1e5, 1000) >= WeightSmallArea.Gamma(60, 1) {
		t.Fatal("smallarea gamma not decreasing in area")
	}
	// Short-wide favors q >> p.
	if WeightShortWide.Gamma(60, 512) <= WeightShortWide.Gamma(1e5, 1) {
		t.Fatal("shortwide gamma not favoring wide short jobs")
	}
}

func TestNAGLearnsLinearTarget(t *testing.T) {
	// y = 3*x1 - 2*x2 + 10, squared loss; NAG should drive the error down.
	src := rng.New(1)
	opt := NewNAG(3, 1.0, 0)
	opt.SetTargetScale(2000)
	var lateErr, earlyErr float64
	const n = 4000
	for i := 0; i < n; i++ {
		x := []float64{1, src.Float64() * 10, src.Float64() * 1000} // wildly different scales
		y := 10 + 3*x[1] - 2*x[2]
		pred := opt.Step(x, func(p float64) float64 { return 2 * (p - y) })
		e := math.Abs(pred - y)
		if i < 200 {
			earlyErr += e
		}
		if i >= n-200 {
			lateErr += e
		}
	}
	if lateErr >= earlyErr/4 {
		t.Fatalf("NAG did not converge: early MAE %v, late MAE %v", earlyErr/200, lateErr/200)
	}
}

func TestNAGScaleInvariance(t *testing.T) {
	// Rescaling a feature by 1e6 must not blow up learning: final error
	// should be in the same ballpark for both scalings.
	run := func(scale float64) float64 {
		src := rng.New(7)
		opt := NewNAG(2, 1.0, 0)
		opt.SetTargetScale(25)
		var late float64
		const n = 3000
		for i := 0; i < n; i++ {
			raw := src.Float64() * 5
			x := []float64{1, raw * scale}
			y := 4*raw + 2
			pred := opt.Step(x, func(p float64) float64 { return 2 * (p - y) })
			if i >= n-500 {
				late += math.Abs(pred - y)
			}
		}
		return late / 500
	}
	small, large := run(1), run(1e6)
	if large > 10*small+1 {
		t.Fatalf("scale invariance broken: err(1)=%v err(1e6)=%v", small, large)
	}
}

func TestNAGRegularizationShrinksWeights(t *testing.T) {
	src := rng.New(3)
	free := NewNAG(2, 1.0, 0)
	reg := NewNAG(2, 1.0, 0.5)
	for i := 0; i < 2000; i++ {
		x := []float64{1, src.Float64()}
		y := 100 * x[1]
		g := func(p float64) float64 { return 2 * (p - y) }
		free.Step(x, g)
		reg.Step(x, g)
	}
	if math.Abs(reg.Weights()[1]) >= math.Abs(free.Weights()[1]) {
		t.Fatalf("ℓ2 regularization did not shrink weights: %v vs %v",
			reg.Weights()[1], free.Weights()[1])
	}
}

func TestNAGInvalidConfigPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewNAG(0, 1, 0) },
		func() { NewNAG(5, 0, 0) },
		func() { NewNAG(5, 1, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic for invalid NAG config")
				}
			}()
			f()
		}()
	}
}

func TestModelLearnsRuntimePattern(t *testing.T) {
	// Jobs whose runtime is a fixed fraction of the request: the model
	// should beat the requested-time baseline by a wide margin.
	m := NewModel(DefaultConfig(SquaredLoss))
	src := rng.New(5)
	var modelAE, requestAE float64
	const n = 3000
	count := 0
	for i := 0; i < n; i++ {
		req := 600 + src.Float64()*35000
		actual := req * 0.2
		x := make([]float64, FeatureCount)
		x[FeatRequestedTime] = req
		x[FeatProcs] = 4
		pred := m.Observe(x, actual, 4)
		if i >= n/2 {
			modelAE += math.Abs(pred - actual)
			requestAE += math.Abs(req - actual)
			count++
		}
	}
	if modelAE >= requestAE/3 {
		t.Fatalf("model MAE %v not much better than requested-time MAE %v",
			modelAE/float64(count), requestAE/float64(count))
	}
}

func TestModelELossBiasesLow(t *testing.T) {
	// Under E-Loss (squared over-prediction penalty), the trained model
	// should under-predict more often than the symmetric model — the
	// behaviour in Figure 4.
	train := func(loss Loss) float64 {
		m := NewModel(DefaultConfig(loss))
		src := rng.New(9)
		under := 0
		const n = 4000
		for i := 0; i < n; i++ {
			req := 1000 + src.Float64()*20000
			actual := req * (0.2 + 0.4*src.Float64())
			x := make([]float64, FeatureCount)
			x[FeatRequestedTime] = req
			x[FeatProcs] = 1 + src.Float64()*63
			pred := m.Observe(x, actual, x[FeatProcs])
			if i >= n/2 && pred < actual {
				under++
			}
		}
		return float64(under) / float64(n/2)
	}
	e := train(ELoss)
	s := train(SquaredLoss)
	if e <= s {
		t.Fatalf("E-Loss under-prediction rate %v should exceed symmetric %v", e, s)
	}
}

func TestTrackerFirstJobDefaults(t *testing.T) {
	tr := NewTracker()
	j := &job.Job{ID: 1, User: 7, Procs: 4, Request: 3600}
	x := tr.Features(j, 0)
	if x[FeatRequestedTime] != 3600 || x[FeatProcs] != 4 {
		t.Fatal("basic features wrong")
	}
	if x[FeatLastRuntime] != 0 || x[FeatAve2] != 0 || x[FeatAveAll] != 0 {
		t.Fatal("history features should be 0 for a new user")
	}
	if x[FeatAveHistProcs] != 4 || x[FeatProcsRatio] != 1 {
		t.Fatalf("hist procs should default to own request: %v %v",
			x[FeatAveHistProcs], x[FeatProcsRatio])
	}
	if x[FeatBreakTime] != 0 {
		t.Fatal("break time should be 0 with no completions")
	}
}

func TestTrackerHistory(t *testing.T) {
	tr := NewTracker()
	user := int64(3)
	runs := []int64{100, 200, 300, 400}
	for i, r := range runs {
		j := &job.Job{ID: int64(i + 1), User: user, Procs: 2, Request: 1000, Runtime: r}
		tr.OnSubmit(j)
		tr.OnStart(j)
		tr.OnFinish(j, int64(1000*(i+1)))
	}
	next := &job.Job{ID: 99, User: user, Procs: 8, Request: 500}
	x := tr.Features(next, 5000)
	if x[FeatLastRuntime] != 400 || x[FeatLastRuntime2] != 300 || x[FeatLastRuntime3] != 200 {
		t.Fatalf("last runtimes wrong: %v %v %v", x[FeatLastRuntime], x[FeatLastRuntime2], x[FeatLastRuntime3])
	}
	if x[FeatAve2] != 350 {
		t.Fatalf("AVE2 = %v, want 350", x[FeatAve2])
	}
	if x[FeatAve3] != 300 {
		t.Fatalf("AVE3 = %v, want 300", x[FeatAve3])
	}
	if x[FeatAveAll] != 250 {
		t.Fatalf("AVEall = %v, want 250", x[FeatAveAll])
	}
	if x[FeatAveHistProcs] != 2 {
		t.Fatalf("AveHistProcs = %v, want 2", x[FeatAveHistProcs])
	}
	if x[FeatProcsRatio] != 4 {
		t.Fatalf("ProcsRatio = %v, want 4", x[FeatProcsRatio])
	}
	if x[FeatBreakTime] != 1000 {
		t.Fatalf("BreakTime = %v, want 1000", x[FeatBreakTime])
	}
}

func TestTrackerRunningJobs(t *testing.T) {
	tr := NewTracker()
	user := int64(1)
	j1 := &job.Job{ID: 1, User: user, Procs: 4, Start: 100, Started: true}
	j2 := &job.Job{ID: 2, User: user, Procs: 2, Start: 300, Started: true}
	tr.OnStart(j1)
	tr.OnStart(j2)
	x := tr.Features(&job.Job{ID: 3, User: user, Procs: 1, Request: 60}, 500)
	if x[FeatJobsRunning] != 2 {
		t.Fatalf("JobsRunning = %v", x[FeatJobsRunning])
	}
	if x[FeatOccupiedResources] != 6 {
		t.Fatalf("OccupiedResources = %v", x[FeatOccupiedResources])
	}
	if x[FeatLongestCurrent] != 400 {
		t.Fatalf("LongestCurrent = %v, want 400", x[FeatLongestCurrent])
	}
	if x[FeatSumCurrent] != 600 {
		t.Fatalf("SumCurrent = %v, want 600", x[FeatSumCurrent])
	}
	if x[FeatAveCurrProcs] != 3 {
		t.Fatalf("AveCurrProcs = %v, want 3", x[FeatAveCurrProcs])
	}
	tr.OnFinish(j1, 600)
	x = tr.Features(&job.Job{ID: 4, User: user, Procs: 1, Request: 60}, 700)
	if x[FeatJobsRunning] != 1 || x[FeatOccupiedResources] != 2 {
		t.Fatal("finish did not remove the job from the running set")
	}
}

func TestTrackerPeriodicFeatures(t *testing.T) {
	tr := NewTracker()
	j := &job.Job{ID: 1, User: 1, Procs: 1, Request: 60}
	x := tr.Features(j, 0)
	if math.Abs(x[FeatCosDay]-1) > 1e-9 || math.Abs(x[FeatSinDay]) > 1e-9 {
		t.Fatal("midnight should give cos=1 sin=0")
	}
	x = tr.Features(j, 6*3600) // quarter day
	if math.Abs(x[FeatCosDay]) > 1e-9 || math.Abs(x[FeatSinDay]-1) > 1e-9 {
		t.Fatalf("quarter-day angle wrong: cos=%v sin=%v", x[FeatCosDay], x[FeatSinDay])
	}
	// One full day later, the day features repeat.
	y := tr.Features(j, 6*3600+daySeconds)
	if math.Abs(x[FeatCosDay]-y[FeatCosDay]) > 1e-9 {
		t.Fatal("day feature not periodic")
	}
}

func TestTrackerUsersIndependent(t *testing.T) {
	tr := NewTracker()
	a := &job.Job{ID: 1, User: 1, Procs: 2, Request: 100, Runtime: 50}
	tr.OnSubmit(a)
	tr.OnStart(a)
	tr.OnFinish(a, 100)
	x := tr.Features(&job.Job{ID: 2, User: 2, Procs: 2, Request: 100}, 200)
	if x[FeatLastRuntime] != 0 || x[FeatBreakTime] != 0 {
		t.Fatal("user 2 sees user 1's history")
	}
}

func TestQuickLossEvalGradConsistent(t *testing.T) {
	f := func(predRaw, actualRaw uint16, qRaw uint8) bool {
		pred := float64(predRaw)
		actual := float64(actualRaw) + 1
		q := float64(qRaw) + 1
		for _, l := range []Loss{ELoss, SquaredLoss} {
			if l.Eval(pred, actual, q) < 0 {
				return false
			}
			g := l.Grad(pred, actual, q)
			if pred > actual && g <= 0 {
				return false
			}
			if pred < actual && g >= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBasisExpand(b *testing.B) {
	basis := NewBasis(FeatureCount)
	x := make([]float64, FeatureCount)
	for i := range x {
		x[i] = float64(i + 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		basis.Expand(x)
	}
}

// predictSink keeps the benchmarked prediction live.
var predictSink float64

func BenchmarkModelPredict(b *testing.B) {
	m := NewModel(DefaultConfig(ELoss))
	x := make([]float64, FeatureCount)
	for i := range x {
		x[i] = float64(i * 100)
	}
	for i := 0; i < 100; i++ {
		m.Observe(x, 3600, 8)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		predictSink = m.Predict(x)
	}
}

func BenchmarkModelObserve(b *testing.B) {
	m := NewModel(DefaultConfig(ELoss))
	x := make([]float64, FeatureCount)
	for i := range x {
		x[i] = float64(i * 100)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Observe(x, 3600, 8)
	}
}

func trainSample(m *Model, n int, seed uint64) {
	src := rng.New(seed)
	for i := 0; i < n; i++ {
		req := 600 + src.Float64()*30000
		actual := req * 0.25
		x := make([]float64, FeatureCount)
		x[FeatRequestedTime] = req
		x[FeatProcs] = 1 + src.Float64()*31
		m.Observe(x, actual, x[FeatProcs])
	}
}

func TestLinearBasisDegree(t *testing.T) {
	b := NewBasisDegree(3, 1)
	out := b.Expand([]float64{2, 3, 5})
	want := []float64{1, 2, 3, 5}
	if len(out) != len(want) {
		t.Fatalf("linear basis dim %d, want %d", len(out), len(want))
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("linear basis wrong at %d: %v", i, out)
		}
	}
}

func TestBasisDegreeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("degree 3 accepted")
		}
	}()
	NewBasisDegree(3, 3)
}

func TestModelDegree1Config(t *testing.T) {
	cfg := DefaultConfig(SquaredLoss)
	cfg.Degree = 1
	m := NewModel(cfg)
	trainSample(m, 200, 5)
	x := make([]float64, FeatureCount)
	x[FeatRequestedTime] = 10000
	x[FeatProcs] = 4
	if p := m.Predict(x); p == 0 {
		t.Fatal("degree-1 model did not learn")
	}
}
