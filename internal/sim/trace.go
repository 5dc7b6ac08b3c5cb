package sim

import (
	"time"

	"repro/internal/eventq"
	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/sched"
)

// This file is the engine's flight-recorder surface: every emission is
// behind a nil check at the call site, so an untraced, unprofiled run
// takes one predictable branch per decision and allocates nothing —
// the guarantee the zero-alloc Pick baselines in BENCH_baseline.json
// pin. Emissions construct the obs.Event locally and hand a pointer to
// the tracer, which must not retain it.

// instrument wires the optional tracer and stage profile into the
// engine. timed gates every clock read: an engine with neither tracer
// nor profile never calls time.Now inside the event loop.
func (e *engine) instrument(tracer obs.Tracer, profile bool) {
	e.tracer = tracer
	if profile {
		e.prof = obs.NewStageProfile()
	}
	e.timed = e.tracer != nil || e.prof != nil
}

// pop wraps the event-queue pop with optional stage timing.
func (e *engine) pop() (eventq.Event[payload], bool) {
	if e.prof == nil {
		return e.q.Pop()
	}
	t0 := time.Now()
	ev, ok := e.q.Pop()
	if ok {
		e.prof.Observe(obs.StagePop, time.Since(t0).Nanoseconds())
	}
	return ev, ok
}

// observeFinish times the predictor's profile update at job finish (the
// learning hot path) when profiling is on.
func (e *engine) observeFinish(c *clusterState, j *job.Job, now int64) {
	if e.prof == nil {
		c.predictor.OnFinish(j, now)
		return
	}
	t0 := time.Now()
	c.predictor.OnFinish(j, now)
	e.prof.Observe(obs.StageProfileUpdate, time.Since(t0).Nanoseconds())
}

// traceRoute stamps a routing decision with the same candidate set the
// router chose from (sched.Eligible over the snapshot the router saw).
// Both scratch buffers live on the engine, so traced routes allocate
// only when the platform outgrows them.
func (e *engine) traceRoute(c *clusterState, j *job.Job, now int64) {
	e.eligIdx = sched.Eligible(e.eligIdx, j, e.views)
	e.elig = e.elig[:0]
	for _, i := range e.eligIdx {
		e.elig = append(e.elig, e.clusters[i].name)
	}
	ev := obs.Event{
		T: now, Kind: obs.KindRoute, Job: j.ID, Procs: j.Procs,
		Router: e.router.Name(), Eligible: e.elig, Cluster: c.name,
	}
	e.tracer.Trace(&ev)
}

func (e *engine) traceSubmit(c *clusterState, j *job.Job, now int64) {
	ev := obs.Event{
		T: now, Kind: obs.KindSubmit, Job: j.ID, Cluster: c.name,
		Procs: j.Procs, Request: j.Request, Prediction: j.Prediction,
	}
	e.tracer.Trace(&ev)
}

func (e *engine) tracePick(c *clusterState, now int64, picked *job.Job, queueLen int, nanos int64) {
	ev := obs.Event{
		T: now, Kind: obs.KindPick, Policy: c.policy.Name(), Cluster: c.name,
		QueueLen: queueLen, Free: c.machine.Free(), Eventual: c.machine.EventualCapacity(),
		Nanos: nanos,
	}
	if picked != nil {
		ev.Picked = picked.ID
	}
	e.tracer.Trace(&ev)
}

func (e *engine) traceStart(c *clusterState, j *job.Job, now int64) {
	ev := obs.Event{
		T: now, Kind: obs.KindStart, Job: j.ID, Cluster: c.name,
		Procs: j.Procs, Wait: j.Wait(),
	}
	e.tracer.Trace(&ev)
}

func (e *engine) traceFinish(c *clusterState, j *job.Job, now int64) {
	wait := j.Wait()
	ev := obs.Event{
		T: now, Kind: obs.KindFinish, Job: j.ID, Cluster: c.name,
		Runtime: j.Runtime, Predicted: j.SubmitPrediction,
		PredErr: j.SubmitPrediction - j.Runtime,
		Wait:    wait, Bsld: obs.Bsld(wait, j.Runtime),
		Corrections: j.Corrections,
	}
	e.tracer.Trace(&ev)
}

func (e *engine) traceCancel(c *clusterState, j *job.Job, now int64) {
	ev := obs.Event{
		T: now, Kind: obs.KindCancel, Job: j.ID, Started: j.Started,
	}
	if c != nil {
		ev.Cluster = c.name
	}
	e.tracer.Trace(&ev)
}

// traceCapacity records a capacity change: procs is the drained or
// restored processor count for scenario events, 0 when a job release
// was absorbed by a pending drain.
func (e *engine) traceCapacity(c *clusterState, now, procs int64) {
	ev := obs.Event{
		T: now, Kind: obs.KindCapacity, Cluster: c.name, Procs: procs,
		Capacity: c.machine.Capacity(), Eventual: c.machine.EventualCapacity(),
	}
	e.tracer.Trace(&ev)
}

func (e *engine) traceCorrect(c *clusterState, j *job.Job, now int64) {
	ev := obs.Event{
		T: now, Kind: obs.KindCorrect, Job: j.ID, Cluster: c.name,
		Prediction: j.Prediction, Corrections: j.Corrections,
	}
	e.tracer.Trace(&ev)
}
