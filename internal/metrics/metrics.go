// Package metrics computes the objective functions of Section 5.3 and
// the prediction-quality measures of Section 6.4: the bounded slowdown
// and its average (AVEbsld, the paper's sole scheduling objective),
// waiting-time and utilization summaries, and the MAE / mean-E-Loss pair
// of Table 8.
package metrics

import (
	"math"
	"sort"

	"repro/internal/job"
	"repro/internal/ml"
	"repro/internal/sim"
)

// Tau is the bounded-slowdown threshold τ: the literature (and the
// paper) set it to 10 seconds to keep tiny jobs from dominating.
const Tau = 10

// Bsld returns the bounded slowdown of one job:
//
//	max( (wait + p) / max(p, τ), 1 )
func Bsld(wait, runtime int64) float64 {
	denom := runtime
	if denom < Tau {
		denom = Tau
	}
	v := float64(wait+runtime) / float64(denom)
	if v < 1 {
		return 1
	}
	return v
}

// AVEbsld returns the average bounded slowdown of a realized schedule.
// Jobs a scenario canceled before they ever ran are excluded (they have
// no realized schedule); killed jobs count with their truncated runtime.
func AVEbsld(res *sim.Result) float64 {
	var sum float64
	n := 0
	for _, j := range res.Jobs {
		if !j.Finished {
			continue
		}
		sum += Bsld(j.Wait(), j.Runtime)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MaxBsld returns the worst bounded slowdown (the extreme values the
// paper's discussion in Section 6.5 worries about).
func MaxBsld(res *sim.Result) float64 {
	var worst float64
	for _, j := range res.Jobs {
		if !j.Finished {
			continue
		}
		if b := Bsld(j.Wait(), j.Runtime); b > worst {
			worst = b
		}
	}
	return worst
}

// MeanWait returns the average waiting time in seconds over the jobs
// that ran.
func MeanWait(res *sim.Result) float64 {
	var sum int64
	n := 0
	for _, j := range res.Jobs {
		if !j.Finished {
			continue
		}
		sum += j.Wait()
		n++
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// Utilization returns consumed work divided by nominal machine capacity
// over the schedule's makespan. Under a disruption scenario the nominal
// capacity overstates what was actually in service, so this is a lower
// bound on the in-service utilization.
func Utilization(res *sim.Result) float64 {
	if res.Makespan <= 0 || res.MaxProcs <= 0 {
		return 0
	}
	var work int64
	for _, j := range res.Jobs {
		if !j.Finished {
			continue
		}
		work += j.Runtime * j.Procs
	}
	return float64(work) / (float64(res.Makespan) * float64(res.MaxProcs))
}

// PredictionError returns pred − actual per job (positive means
// over-prediction), using the prediction made at submission.
func PredictionError(jobs []*job.Job) []float64 {
	errs := make([]float64, len(jobs))
	for i, j := range jobs {
		errs[i] = float64(j.SubmitPrediction - j.Runtime)
	}
	return errs
}

// MAE returns the mean absolute error of submission-time predictions, in
// seconds (Table 8's first column). Jobs without a realized runtime
// (canceled before running) are excluded.
func MAE(jobs []*job.Job) float64 {
	var sum float64
	n := 0
	for _, j := range jobs {
		if !j.Finished {
			continue
		}
		sum += math.Abs(float64(j.SubmitPrediction - j.Runtime))
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MeanELoss returns the mean E-Loss of submission-time predictions
// (Table 8's second column).
func MeanELoss(jobs []*job.Job) float64 {
	var sum float64
	n := 0
	for _, j := range jobs {
		if !j.Finished {
			continue
		}
		sum += ml.ELoss.Eval(float64(j.SubmitPrediction), float64(j.Runtime), float64(j.Procs))
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// ECDF is an empirical cumulative distribution function: for each sorted
// sample value, the fraction of samples at or below it.
type ECDF struct {
	values []float64
}

// NewECDF builds the ECDF of the given samples (which it copies and sorts).
func NewECDF(samples []float64) *ECDF {
	v := append([]float64(nil), samples...)
	sort.Float64s(v)
	return &ECDF{values: v}
}

// Len returns the sample count.
func (e *ECDF) Len() int { return len(e.values) }

// At returns P(X <= x).
func (e *ECDF) At(x float64) float64 {
	if len(e.values) == 0 {
		return 0
	}
	idx := sort.SearchFloat64s(e.values, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(e.values))
}

// Quantile returns the q-quantile (0 <= q <= 1) of the samples.
func (e *ECDF) Quantile(q float64) float64 {
	if len(e.values) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return e.values[0]
	}
	if q >= 1 {
		return e.values[len(e.values)-1]
	}
	idx := int(q * float64(len(e.values)))
	if idx >= len(e.values) {
		idx = len(e.values) - 1
	}
	return e.values[idx]
}
