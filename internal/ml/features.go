// Package ml implements the paper's prediction method: on-line
// ℓ2-regularized degree-2 polynomial regression over SWF-derived
// features, trained with the Normalized Adaptive Gradient algorithm
// under asymmetric, per-job-weighted loss functions (Section 4 of the
// paper). The package is self-contained: feature extraction (Table 2),
// basis expansion, the loss family (Table 3 weights), and the NAG
// optimizer are all here; the predictor adapter lives in internal/predict.
package ml

import (
	"math"

	"repro/internal/job"
)

// FeatureCount is the number of raw features extracted per job (Table 2).
const FeatureCount = 20

// Feature indices, in the order of Table 2.
const (
	FeatRequestedTime     = iota // p̃j
	FeatLastRuntime              // p(k)j-1
	FeatLastRuntime2             // p(k)j-2
	FeatLastRuntime3             // p(k)j-3
	FeatAve2                     // AVE(k)2(p)
	FeatAve3                     // AVE(k)3(p)
	FeatAveAll                   // AVE(k)all(p)
	FeatProcs                    // qj
	FeatAveHistProcs             // AVE(k)hist(q)
	FeatProcsRatio               // qj / AVE(k)hist(q)
	FeatAveCurrProcs             // AVE(k)curr(q)
	FeatJobsRunning              // jobs of the user currently running
	FeatLongestCurrent           // longest running time so far
	FeatSumCurrent               // sum of running times so far
	FeatOccupiedResources        // resources currently held by the user
	FeatBreakTime                // time since the user's last completion
	FeatCosDay                   // cos of time-of-day
	FeatSinDay                   // sin of time-of-day
	FeatCosWeek                  // cos of time-of-week
	FeatSinWeek                  // sin of time-of-week
)

// FeatureNames gives a stable human-readable name per index.
var FeatureNames = [FeatureCount]string{
	"requested_time", "last_runtime_1", "last_runtime_2", "last_runtime_3",
	"ave2", "ave3", "ave_all", "procs", "ave_hist_procs", "procs_ratio",
	"ave_curr_procs", "jobs_running", "longest_current", "sum_current",
	"occupied_resources", "break_time", "cos_day", "sin_day", "cos_week", "sin_week",
}

const (
	daySeconds  = 24 * 3600
	weekSeconds = 7 * daySeconds
)

// userState is the on-line per-user history the extractor maintains.
type userState struct {
	lastRuntimes   [3]float64 // most recent first
	historyCount   int
	runtimeSum     float64
	procsSum       float64
	submittedCount int
	lastCompletion int64
	hasCompletion  bool
	// running holds the user's running jobs, found by identity: a job ID
	// may be reused while its first holder still runs. The features sum
	// integer-valued terms below 2^53 over it, so its order never shows
	// in their bits.
	running []*job.Job
}

// Tracker extracts Table-2 feature vectors and maintains the per-user
// and system state they depend on. It must be fed the simulation's
// lifecycle events through OnSubmit/OnStart/OnFinish in event order.
type Tracker struct {
	users map[int64]*userState
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{users: make(map[int64]*userState)}
}

func (t *Tracker) user(id int64) *userState {
	u, ok := t.users[id]
	if !ok {
		u = &userState{}
		t.users[id] = u
	}
	return u
}

// Features extracts the raw feature vector for a job at its release date
// into a new slice; see FillFeatures.
func (t *Tracker) Features(j *job.Job, now int64) []float64 {
	var x [FeatureCount]float64
	t.FillFeatures(&x, j, now)
	return x[:]
}

// FillFeatures extracts the raw feature vector for a job at its release
// date into x, overwriting every element. Call before OnSubmit for the
// same job (the job's own request must not pollute its historical
// averages).
func (t *Tracker) FillFeatures(x *[FeatureCount]float64, j *job.Job, now int64) {
	u := t.user(j.User)
	*x = [FeatureCount]float64{}
	x[FeatRequestedTime] = float64(j.Request)
	x[FeatLastRuntime] = u.lastRuntimes[0]
	x[FeatLastRuntime2] = u.lastRuntimes[1]
	x[FeatLastRuntime3] = u.lastRuntimes[2]
	x[FeatAve2] = u.average(2)
	x[FeatAve3] = u.average(3)
	if u.historyCount > 0 {
		x[FeatAveAll] = u.runtimeSum / float64(u.historyCount)
	}
	x[FeatProcs] = float64(j.Procs)
	aveHist := float64(j.Procs)
	if u.submittedCount > 0 {
		aveHist = u.procsSum / float64(u.submittedCount)
	}
	x[FeatAveHistProcs] = aveHist
	if aveHist > 0 {
		x[FeatProcsRatio] = float64(j.Procs) / aveHist
	}
	if n := len(u.running); n > 0 {
		var procsSum, runSum, longest float64
		for _, rj := range u.running {
			procsSum += float64(rj.Procs)
			elapsed := float64(now - rj.Start)
			if elapsed < 0 {
				elapsed = 0
			}
			runSum += elapsed
			if elapsed > longest {
				longest = elapsed
			}
		}
		x[FeatOccupiedResources] = procsSum
		x[FeatAveCurrProcs] = procsSum / float64(n)
		x[FeatJobsRunning] = float64(n)
		x[FeatLongestCurrent] = longest
		x[FeatSumCurrent] = runSum
	}
	if u.hasCompletion {
		bt := float64(now - u.lastCompletion)
		if bt < 0 {
			bt = 0
		}
		x[FeatBreakTime] = bt
	}
	day := 2 * math.Pi * float64(now%daySeconds) / daySeconds
	week := 2 * math.Pi * float64(now%weekSeconds) / weekSeconds
	x[FeatCosDay] = math.Cos(day)
	x[FeatSinDay] = math.Sin(day)
	x[FeatCosWeek] = math.Cos(week)
	x[FeatSinWeek] = math.Sin(week)
}

// average returns the mean of the user's k most recent runtimes (as many
// as are available), or 0 with no history.
func (u *userState) average(k int) float64 {
	n := u.historyCount
	if n > k {
		n = k
	}
	if n > 3 {
		n = 3
	}
	if n == 0 {
		return 0
	}
	var sum float64
	for i := 0; i < n; i++ {
		sum += u.lastRuntimes[i]
	}
	return sum / float64(n)
}

// OnSubmit records that the job was submitted (updates the historical
// resource-request averages).
func (t *Tracker) OnSubmit(j *job.Job) {
	u := t.user(j.User)
	u.procsSum += float64(j.Procs)
	u.submittedCount++
}

// OnStart records that the job started running.
func (t *Tracker) OnStart(j *job.Job) {
	u := t.user(j.User)
	u.running = append(u.running, j)
}

// OnFinish records the job's completion and folds its actual running
// time into the user's history.
func (t *Tracker) OnFinish(j *job.Job, now int64) {
	u := t.user(j.User)
	for i, rj := range u.running {
		if rj == j {
			last := len(u.running) - 1
			u.running[i] = u.running[last]
			u.running[last] = nil
			u.running = u.running[:last]
			break
		}
	}
	u.lastRuntimes[2] = u.lastRuntimes[1]
	u.lastRuntimes[1] = u.lastRuntimes[0]
	u.lastRuntimes[0] = float64(j.Runtime)
	u.historyCount++
	u.runtimeSum += float64(j.Runtime)
	u.lastCompletion = now
	u.hasCompletion = true
}
