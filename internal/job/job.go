// Package job defines the runtime job representation shared by the
// simulator, the schedulers, the predictors and the correction
// mechanisms. It is the leaf package of the scheduling stack: everything
// imports it, it imports only the SWF record it wraps.
package job

import "repro/internal/swf"

// Job is one job instance inside a simulation. The immutable fields are
// fixed at construction from the SWF record; the mutable fields track the
// scheduling state as the simulation progresses.
type Job struct {
	// ID is the job's identifier (SWF job number).
	ID int64
	// User is the submitting user.
	User int64
	// Procs is the rigid resource requirement qj.
	Procs int64
	// Submit is the release date rj in seconds.
	Submit int64
	// Runtime is the actual running time pj. Scheduling policies must not
	// read it: only the Clairvoyant predictor and the engine (to schedule
	// the completion event) may.
	Runtime int64
	// Request is the user-requested running time p̃j (kill bound), pj <= p̃j.
	Request int64

	// Prediction is the current predicted running time used by the
	// scheduler. Set by a predictor at submission and updated by a
	// correction mechanism each time the job outlives it.
	Prediction int64
	// Corrections counts how many times the prediction expired while the
	// job was running.
	Corrections int
	// SubmitPrediction is the prediction made at submission time, before
	// any correction. Kept for the prediction-accuracy analyses
	// (Table 8, Figures 4 and 5).
	SubmitPrediction int64

	// Started/Finished/Start/End record the realized schedule.
	Started  bool
	Finished bool
	// Canceled marks a job removed by a scenario cancellation: dropped
	// before submission or pulled from the queue (Started stays false,
	// the job never runs) or killed while running (Finished is set and
	// Runtime is truncated to the time actually executed). It sits with
	// the other flags so the struct stays 128 bytes.
	Canceled bool
	Start    int64
	End      int64
	// Cluster is the index of the federated cluster the job was routed
	// to at submission. Always 0 on single-machine runs, and for jobs a
	// scenario canceled before they were ever routed.
	Cluster int
	// Client is the index of the traffic source that generated the job
	// in a multi-client workload, derived from the SWF Partition field
	// (partition 1+index). 0 for single-population synthetics; negative
	// or out-of-range values (archive logs with exotic partition
	// numbering) are ignored by the per-client collectors.
	Client int
	// Seq is the job's place in its cluster's waiting queue: the engine
	// stamps it from one per-run counter as the job joins the queue, so
	// every queue is strictly increasing in Seq and the engine finds a
	// queued job by binary search. Zero until the job is queued.
	Seq int64

	// Record points at the original SWF record, which carries the extra
	// descriptive fields (executable, queue, ...) used by learning.
	Record *swf.Job
}

// FromSWF builds the runtime job from an SWF record.
func FromSWF(r *swf.Job) *Job {
	j := new(Job)
	FromSWFInto(j, r)
	return j
}

// FromSWFInto initializes dst in place from an SWF record, overwriting
// every field. It is the allocation-free core of FromSWF, used by slab
// and arena allocation (see Arena and the sim event loop).
func FromSWFInto(dst *Job, r *swf.Job) {
	*dst = Job{
		ID:      r.JobNumber,
		User:    r.UserID,
		Procs:   r.Procs(),
		Submit:  r.SubmitTime,
		Runtime: r.RunTime,
		Request: r.Request(),
		Client:  int(r.Partition) - 1,
		Record:  r,
	}
}

// Wait returns the waiting time of a started job.
func (j *Job) Wait() int64 {
	if !j.Started {
		return -1
	}
	return j.Start - j.Submit
}

// PredictedEnd returns the completion instant implied by the current
// prediction for a started job.
func (j *Job) PredictedEnd() int64 { return j.Start + j.Prediction }

// Area returns the job's rectangle pj*qj in processor-seconds.
func (j *Job) Area() int64 { return j.Runtime * j.Procs }

// ClampPrediction bounds a raw predicted value into the valid range
// [1, Request]: predictions below one second are meaningless and the
// system kills any job at its requested time, so no useful prediction
// exceeds it.
func (j *Job) ClampPrediction(p int64) int64 {
	if p < 1 {
		return 1
	}
	if p > j.Request {
		return j.Request
	}
	return p
}
