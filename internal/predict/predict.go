// Package predict defines the running-time prediction techniques the
// paper evaluates: the Clairvoyant and Requested Time bounds, Tsafrir's
// AVE2 user-history average, and the machine-learning model of Section 4
// wrapped behind the same interface. A Predictor is driven by the
// simulator through lifecycle hooks so it sees exactly the information a
// real job management system would have at each instant.
package predict

import (
	"fmt"

	"repro/internal/job"
	"repro/internal/ml"
)

// Predictor estimates job running times on-line.
//
// The simulator calls Predict exactly once per job at its submission
// instant (before OnSubmit), then OnSubmit, then OnStart when the job
// begins execution and OnFinish when it completes. Predictions returned
// are clamped by the caller into [1, p̃j].
type Predictor interface {
	// Name identifies the technique in reports.
	Name() string
	// Predict returns the predicted running time (seconds) for a job
	// being submitted at instant now.
	Predict(j *job.Job, now int64) int64
	// OnSubmit tells the predictor the job entered the system.
	OnSubmit(j *job.Job, now int64)
	// OnStart tells the predictor the job began execution.
	OnStart(j *job.Job, now int64)
	// OnFinish tells the predictor the job completed; j.Runtime is now
	// observable and may be learned from.
	OnFinish(j *job.Job, now int64)
}

// noopHooks provides empty lifecycle hooks for stateless predictors.
type noopHooks struct{}

func (noopHooks) OnSubmit(*job.Job, int64) {}
func (noopHooks) OnStart(*job.Job, int64)  {}
func (noopHooks) OnFinish(*job.Job, int64) {}

// Clairvoyant predicts the actual running time — the upper bound on what
// any technique can achieve (Table 1's EASY-Clairvoyant).
type Clairvoyant struct{ noopHooks }

// NewClairvoyant returns the clairvoyant predictor.
func NewClairvoyant() *Clairvoyant { return &Clairvoyant{} }

// Name implements Predictor.
func (*Clairvoyant) Name() string { return "Clairvoyant" }

// Predict implements Predictor.
func (*Clairvoyant) Predict(j *job.Job, _ int64) int64 { return j.Runtime }

// RequestedTime predicts the user's requested running time — what plain
// EASY uses.
type RequestedTime struct{ noopHooks }

// NewRequestedTime returns the requested-time predictor.
func NewRequestedTime() *RequestedTime { return &RequestedTime{} }

// Name implements Predictor.
func (*RequestedTime) Name() string { return "RequestedTime" }

// Predict implements Predictor.
func (*RequestedTime) Predict(j *job.Job, _ int64) int64 { return j.Request }

// UserAverage predicts the average of the user's K most recent actual
// running times (AVE2 for K=2, the technique of Tsafrir et al. used by
// EASY++), falling back to the requested time while the user has no
// history.
type UserAverage struct {
	k       int
	history map[int64][]int64 // user -> most recent runtimes, newest first
}

// NewUserAverage returns an AVE(k) predictor; k must be positive.
func NewUserAverage(k int) *UserAverage {
	if k <= 0 {
		panic(fmt.Sprintf("predict: UserAverage with k=%d", k))
	}
	return &UserAverage{k: k, history: make(map[int64][]int64)}
}

// Name implements Predictor.
func (p *UserAverage) Name() string { return fmt.Sprintf("AVE%d", p.k) }

// Predict implements Predictor.
func (p *UserAverage) Predict(j *job.Job, _ int64) int64 {
	h := p.history[j.User]
	if len(h) == 0 {
		return j.Request
	}
	var sum int64
	for _, r := range h {
		sum += r
	}
	return sum / int64(len(h))
}

// OnSubmit implements Predictor.
func (*UserAverage) OnSubmit(*job.Job, int64) {}

// OnStart implements Predictor.
func (*UserAverage) OnStart(*job.Job, int64) {}

// OnFinish implements Predictor. The newest runtime is shifted into the
// user's window in place: once a user's window reaches k entries it is
// never reallocated, so the learning hot path stops allocating entirely
// (this is the predictor update inside every job completion).
func (p *UserAverage) OnFinish(j *job.Job, _ int64) {
	h := p.history[j.User]
	if len(h) < p.k {
		h = append(h, 0)
	}
	copy(h[1:], h)
	h[0] = j.Runtime
	p.history[j.User] = h
}

// Releaser is implemented by predictors that keep per-job state from
// Predict until OnFinish. A job canceled while it waits never reaches
// OnFinish, so the simulator calls Release for it instead; nothing else
// about the job is learned.
type Releaser interface {
	Release(j *job.Job)
}

// Learning wraps the ml regression model behind the Predictor interface:
// features are extracted at submission from the tracker state, remembered
// until the job completes, and then used for one on-line training step.
//
// The remembered features are keyed by the job itself, not its ID (an ID
// may be reused while its first holder is still live), and they leave at
// OnFinish or Release. That is before the simulator recycles the job, so
// no entry outlives its job and the table stays O(live jobs). Slots are
// reused through a free list, so a steady stream of jobs allocates
// nothing.
type Learning struct {
	model   *ml.Model
	tracker *ml.Tracker
	pending map[*job.Job]int32 // predicted, not yet retired job -> its slot
	slots   [][ml.FeatureCount]float64
	free    []int32 // unused slots
	name    string
}

// NewLearning builds an ML predictor training under the given loss with
// default hyper-parameters.
func NewLearning(loss ml.Loss) *Learning {
	return NewLearningConfig(ml.DefaultConfig(loss))
}

// NewLearningConfig builds an ML predictor with explicit configuration.
func NewLearningConfig(cfg ml.Config) *Learning {
	return &Learning{
		model:   ml.NewModel(cfg),
		tracker: ml.NewTracker(),
		pending: make(map[*job.Job]int32),
		name:    "ML[" + cfg.Loss.Name() + "]",
	}
}

// Name implements Predictor.
func (p *Learning) Name() string { return p.name }

// Model exposes the underlying regression model (for analysis).
func (p *Learning) Model() *ml.Model { return p.model }

// Predict implements Predictor.
func (p *Learning) Predict(j *job.Job, now int64) int64 {
	k, ok := p.pending[j]
	if !ok {
		if n := len(p.free); n > 0 {
			k = p.free[n-1]
			p.free = p.free[:n-1]
		} else {
			k = int32(len(p.slots))
			p.slots = append(p.slots, [ml.FeatureCount]float64{})
		}
		p.pending[j] = k
	}
	x := &p.slots[k]
	p.tracker.FillFeatures(x, j, now)
	return int64(p.model.Predict(x[:]))
}

// OnSubmit implements Predictor.
func (p *Learning) OnSubmit(j *job.Job, _ int64) { p.tracker.OnSubmit(j) }

// OnStart implements Predictor.
func (p *Learning) OnStart(j *job.Job, _ int64) { p.tracker.OnStart(j) }

// OnFinish implements Predictor.
func (p *Learning) OnFinish(j *job.Job, now int64) {
	if k, ok := p.pending[j]; ok {
		p.model.Observe(p.slots[k][:], float64(j.Runtime), float64(j.Procs))
		p.free = append(p.free, k)
		delete(p.pending, j)
	}
	p.tracker.OnFinish(j, now)
}

// Release implements Releaser: it forgets the features of a job that
// will not finish.
func (p *Learning) Release(j *job.Job) {
	if k, ok := p.pending[j]; ok {
		p.free = append(p.free, k)
		delete(p.pending, j)
	}
}
