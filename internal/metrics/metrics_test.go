package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/sim"
)

func TestBsld(t *testing.T) {
	cases := []struct {
		wait, runtime int64
		want          float64
	}{
		{0, 100, 1},      // no wait -> 1
		{100, 100, 2},    // wait == runtime -> 2
		{90, 10, 10},     // (90+10)/10
		{90, 1, 9.1},     // tiny job bounded by tau: (90+1)/10
		{0, 1, 1},        // bounded below by 1
		{1000, 5, 100.5}, // (1000+5)/10
		{3600, 3600, 2},  // hour wait, hour run
		{7200, 3600, 3},  // two-hour wait
	}
	for _, c := range cases {
		if got := Bsld(c.wait, c.runtime); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Bsld(%d,%d) = %v, want %v", c.wait, c.runtime, got, c.want)
		}
	}
}

func TestBsldNeverBelowOne(t *testing.T) {
	f := func(wait, runtime uint32) bool {
		return Bsld(int64(wait), int64(runtime)) >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBsldMatchesObs pins the duplicated formula: obs.Bsld (which the
// flight recorder stamps on finish events — it cannot import this
// package without a cycle) must agree with Bsld everywhere.
func TestBsldMatchesObs(t *testing.T) {
	f := func(wait, runtime uint32) bool {
		return Bsld(int64(wait), int64(runtime)) == obs.Bsld(int64(wait), int64(runtime))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	for _, c := range [][2]int64{{0, 0}, {0, 5}, {100, 0}, {100, 10}, {7, 3}} {
		if got, want := obs.Bsld(c[0], c[1]), Bsld(c[0], c[1]); got != want {
			t.Fatalf("obs.Bsld(%d,%d)=%v, metrics.Bsld=%v", c[0], c[1], got, want)
		}
	}
}

func mkResult(jobs ...*job.Job) *sim.Result {
	var makespan int64
	for _, j := range jobs {
		if j.End > makespan {
			makespan = j.End
		}
	}
	return &sim.Result{Jobs: jobs, MaxProcs: 100, Makespan: makespan}
}

func done(id, submit, start, runtime, procs int64) *job.Job {
	return &job.Job{
		ID: id, Submit: submit, Start: start, End: start + runtime,
		Runtime: runtime, Procs: procs, Started: true, Finished: true,
		SubmitPrediction: runtime, Request: runtime * 2,
	}
}

func TestAVEbsld(t *testing.T) {
	res := mkResult(
		done(1, 0, 0, 100, 10),   // bsld 1
		done(2, 0, 100, 100, 10), // bsld 2
	)
	if got := AVEbsld(res); math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("AVEbsld = %v, want 1.5", got)
	}
}

func TestAVEbsldEmpty(t *testing.T) {
	if got := AVEbsld(&sim.Result{}); got != 0 {
		t.Fatalf("empty AVEbsld = %v", got)
	}
}

func TestMaxBsld(t *testing.T) {
	res := mkResult(
		done(1, 0, 0, 100, 10),
		done(2, 0, 990, 10, 1), // bsld (990+10)/10 = 100
	)
	if got := MaxBsld(res); math.Abs(got-100) > 1e-9 {
		t.Fatalf("MaxBsld = %v, want 100", got)
	}
}

func TestMeanWait(t *testing.T) {
	res := mkResult(done(1, 0, 50, 10, 1), done(2, 10, 20, 10, 1))
	if got := MeanWait(res); math.Abs(got-30) > 1e-9 {
		t.Fatalf("MeanWait = %v, want 30", got)
	}
}

func TestUtilization(t *testing.T) {
	// One job: 100 procs x 100s on a 100-proc machine, makespan 100.
	res := mkResult(done(1, 0, 0, 100, 100))
	if got := Utilization(res); math.Abs(got-1) > 1e-9 {
		t.Fatalf("Utilization = %v, want 1", got)
	}
}

func TestMAEAndPredictionError(t *testing.T) {
	j1 := done(1, 0, 0, 100, 1)
	j1.SubmitPrediction = 150 // over by 50
	j2 := done(2, 0, 0, 100, 1)
	j2.SubmitPrediction = 80 // under by 20
	jobs := []*job.Job{j1, j2}
	if got := MAE(jobs); math.Abs(got-35) > 1e-9 {
		t.Fatalf("MAE = %v, want 35", got)
	}
	errs := PredictionError(jobs)
	if errs[0] != 50 || errs[1] != -20 {
		t.Fatalf("PredictionError = %v", errs)
	}
}

func TestMeanELossPenalizesOverPrediction(t *testing.T) {
	over := done(1, 0, 0, 1000, 8)
	over.SubmitPrediction = 3000
	under := done(2, 0, 0, 1000, 8)
	under.SubmitPrediction = 1 // maximally under
	overLoss := MeanELoss([]*job.Job{over})
	underLoss := MeanELoss([]*job.Job{under})
	if overLoss <= underLoss {
		t.Fatalf("E-Loss should punish over-prediction harder: over=%v under=%v", overLoss, underLoss)
	}
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 3, 4})
	cases := []struct{ x, want float64 }{
		{0, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {100, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("ECDF.At(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if e.Len() != 4 {
		t.Fatal("Len wrong")
	}
}

func TestECDFQuantile(t *testing.T) {
	e := NewECDF([]float64{10, 20, 30, 40, 50})
	if got := e.Quantile(0); got != 10 {
		t.Fatalf("q0 = %v", got)
	}
	if got := e.Quantile(1); got != 50 {
		t.Fatalf("q1 = %v", got)
	}
	if got := e.Quantile(0.5); got != 30 {
		t.Fatalf("median = %v", got)
	}
}

func TestECDFEmpty(t *testing.T) {
	e := NewECDF(nil)
	if got := e.At(5); got != 0 {
		t.Fatalf("empty ECDF At = %v", got)
	}
	if !math.IsNaN(e.Quantile(0.5)) {
		t.Fatal("empty quantile should be NaN")
	}
}

func TestQuickECDFMonotone(t *testing.T) {
	f := func(samples []float64) bool {
		for i, s := range samples {
			if math.IsNaN(s) || math.IsInf(s, 0) {
				samples[i] = 0
			}
		}
		e := NewECDF(samples)
		prev := -1.0
		for _, x := range []float64{-1e12, -1, 0, 1, 1e12} {
			p := e.At(x)
			if p < prev || p < 0 || p > 1 {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func monotone(xs []float64) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[i-1] {
			return false
		}
	}
	return true
}
