package sim

import (
	"fmt"
	"math"
	"time"

	"repro/internal/correct"
	"repro/internal/eventq"
	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/predict"
	"repro/internal/sched"
)

// payload is the event-queue payload: a job for Submit, Finish and
// Expiry events, the target's job ID for Cancel events (resolved
// through the engine's ID index when they pop, since the job may not
// have been admitted yet), and a processor count plus a cluster index
// for Drain and Restore (cluster is always 0 on single-machine runs).
type payload struct {
	j       *job.Job
	procs   int64
	id      int64
	cluster int
}

// idEntry is the ID index's record of one job ID a cancellation can
// name. The index holds only such IDs — the script's cancel targets on
// preloaded and streamed runs, every live job on live runs — so it is
// sized by the script or the live set, never by the trace.
type idEntry struct {
	// j is the job while it is in the system: nil before admission and
	// after it leaves, so retired jobs stay collectable.
	j *job.Job
	// named marks an ID a cancellation names. A named entry outlives its
	// job, so a later cancel finds it finished instead of absent; an
	// unnamed one (a live job nothing has named yet) leaves with its job.
	named bool
	// bound marks that the intake delivered a job with this ID.
	bound bool
	// canceled / finished mirror the job's terminal state.
	canceled bool
	finished bool
}

// clusterState is the live state of one member of the platform: its
// machine, its waiting queue, and its own policy/predictor session. A
// classic single-machine run is exactly one clusterState — no name, no
// speed scaling, no per-cluster result slot — which is how the federated
// engine stays byte-identical to the historical single-machine one.
type clusterState struct {
	name  string
	speed float64

	machine   *platform.Machine
	queue     []*job.Job
	policy    sched.Policy
	predictor predict.Predictor

	// sub points at this cluster's slot on Result.Clusters, nil on
	// single-machine runs (whose counters live on the Result alone).
	sub *ClusterResult
}

// engine is the one event core every entry point runs: setup builds it,
// an intake admits jobs, and run (loop.go) feeds popped events to
// handle. All scheduling semantics live here, so the entry points cannot
// drift. The engine drives one event loop over N independent cluster
// states; every event affects exactly one cluster, and only that
// cluster's policy is offered start decisions at the event's instant.
type engine struct {
	corrector correct.Corrector
	clusters  []*clusterState
	// router picks the destination cluster at submit time. Non-nil only
	// on federated runs; single-machine runs dispatch every job to
	// clusters[0] without consulting anything.
	router sched.Router
	// views is the router's reusable read-only snapshot of the clusters.
	views []sched.ClusterState
	q     eventq.Queue[payload]
	sink  JobSink
	res   *Result
	start time.Time
	// widest is the admission bound: the widest cluster's size.
	widest int64
	// ids is the ID index (see idEntry), nil when nothing can cancel.
	// indexLive makes admission index every job (live runs, where any
	// later command may name any job still in the system).
	ids       map[int64]*idEntry
	indexLive bool
	// arena, when non-nil (streamed and live runs), recycles a job's
	// slot after its natural completion retires it. Only the Finish path
	// recycles: a killed job may still have its original Finish event
	// (and stale expiries) queued, so its slot must stay untouched until
	// the run ends. A naturally finished job has no queued events left —
	// every expiry instant is strictly before the completion instant —
	// and by the JobSink contract no observer retains the pointer.
	arena *job.Arena
	// lastTime and cutoff are the command intake's clock: the latest
	// command instant, and the latest advance promise (see run).
	lastTime int64
	cutoff   int64

	// Flight-recorder state (trace.go). tracer and prof are nil on
	// unobserved runs; timed caches whether either is live so the hot
	// loop pays one branch, no clock reads and no allocations when off.
	tracer  obs.Tracer
	prof    *obs.StageProfile
	timed   bool
	eligIdx []int
	elig    []string
}

// newEngine is the one constructor. sessions holds one checked triple
// per cluster (see checkConfig); the first session's corrector serves
// the whole run, and runWide carries the run-wide Sink, Tracer and
// Profile. A nil router makes a single-machine run: its sole cluster
// keeps no name and no per-cluster result slot, so its counters live on
// the Result alone.
func newEngine(name string, clusters []platform.Cluster, sessions []Config, router sched.Router, runWide Config) *engine {
	e := &engine{
		corrector: sessions[0].Corrector,
		router:    router,
		sink:      runWide.Sink,
		start:     time.Now(),
		lastTime:  math.MinInt64,
		cutoff:    math.MinInt64,
		res:       &Result{Triple: sessions[0].Name(), Workload: name, MaxProcs: platform.ClustersTotal(clusters)},
	}
	if e.corrector == nil {
		e.corrector = correct.RequestedTime{}
	}
	if router != nil {
		e.views = make([]sched.ClusterState, len(clusters))
		e.res.Routing = router.Name()
		e.res.Clusters = make([]ClusterResult, len(clusters))
	}
	for i, c := range clusters {
		cfg := sessions[i]
		cs := &clusterState{
			name:      c.Name,
			speed:     c.SpeedFactor(),
			machine:   platform.New(c.Procs),
			queue:     make([]*job.Job, 0, 64),
			policy:    cfg.Policy,
			predictor: cfg.Predictor,
		}
		if router != nil {
			e.res.Clusters[i] = ClusterResult{Name: c.Name, MaxProcs: c.Procs, Speed: c.SpeedFactor()}
			cs.sub = &e.res.Clusters[i]
		}
		e.clusters = append(e.clusters, cs)
		e.widest = max(e.widest, c.Procs)
	}
	e.instrument(runWide.Tracer, runWide.Profile)
	return e
}

// scaleTime converts a reference-speed duration to a cluster running at
// the given speed factor: ceil(x/speed), never rounding a positive
// duration down to zero.
func scaleTime(x int64, speed float64) int64 {
	if x <= 0 {
		return x
	}
	s := int64(math.Ceil(float64(x) / speed))
	if s < 1 {
		s = 1
	}
	return s
}

// recordCapacity appends to the cluster's realized capacity timeline,
// collapsing multiple changes at one instant into the last. Federated
// runs record onto the per-cluster result; single-machine runs onto the
// Result's own timeline, as they always have.
func (e *engine) recordCapacity(c *clusterState, now int64) {
	steps := &e.res.CapacitySteps
	if c.sub != nil {
		steps = &c.sub.CapacitySteps
	}
	cp := c.machine.Capacity()
	if n := len(*steps); n > 0 && (*steps)[n-1].At == now {
		(*steps)[n-1].Capacity = cp
		return
	}
	*steps = append(*steps, CapacityStep{At: now, Capacity: cp})
}

// route picks the destination cluster for a submission. Single-machine
// runs (nil router) dispatch to the sole cluster with the job untouched
// — the identity the differential tests pin. Federated runs consult the
// router over a fresh snapshot, stamp the job with its destination, and
// scale its runtime and kill bound by the cluster's speed factor.
func (e *engine) route(j *job.Job, now int64) *clusterState {
	if e.router == nil {
		return e.clusters[0]
	}
	for i, cs := range e.clusters {
		e.views[i] = sched.ClusterState{Name: cs.name, Machine: cs.machine, QueueLen: len(cs.queue)}
	}
	pick := e.router.Route(j, now, e.views)
	if pick < 0 || pick >= len(e.clusters) || e.clusters[pick].machine.Total() < j.Procs {
		panic(fmt.Sprintf("sim: router %s sent job %d (%d procs) to invalid cluster %d",
			e.router.Name(), j.ID, j.Procs, pick))
	}
	c := e.clusters[pick]
	j.Cluster = pick
	if c.sub != nil {
		c.sub.Routed++
	}
	if e.tracer != nil {
		e.traceRoute(c, j, now)
	}
	if c.speed != 1 {
		j.Runtime = scaleTime(j.Runtime, c.speed)
		j.Request = scaleTime(j.Request, c.speed)
	}
	return c
}

func (e *engine) startJob(c *clusterState, j *job.Job, now int64) {
	j.Started = true
	j.Start = now
	c.machine.Start(j)
	c.predictor.OnStart(j, now)
	c.policy.OnStart(j, now)
	if e.tracer != nil {
		e.traceStart(c, j, now)
	}
	e.q.Push(now+j.Runtime, eventq.Finish, payload{j: j})
	if j.Prediction < j.Runtime {
		e.q.Push(now+j.Prediction, eventq.Expiry, payload{j: j})
	}
}

func (e *engine) schedulePass(c *clusterState, now int64) {
	for {
		e.res.Perf.PickCalls++
		if c.sub != nil {
			c.sub.PickCalls++
		}
		var next *job.Job
		if !e.timed {
			next = c.policy.Pick(now, c.machine, c.queue)
		} else {
			t0 := time.Now()
			next = c.policy.Pick(now, c.machine, c.queue)
			ns := time.Since(t0).Nanoseconds()
			if e.prof != nil {
				e.prof.Observe(obs.StagePick, ns)
			}
			if e.tracer != nil {
				e.tracePick(c, now, next, len(c.queue), ns)
			}
		}
		if next == nil {
			return
		}
		removed := false
		for i, qj := range c.queue {
			if qj == next {
				c.queue = append(c.queue[:i], c.queue[i+1:]...)
				removed = true
				break
			}
		}
		if !removed {
			panic(fmt.Sprintf("sim: policy %s picked job %d not in queue", c.policy.Name(), next.ID))
		}
		e.startJob(c, next, now)
	}
}

// release frees a running job's processors and reports whether a
// pending drain absorbed part of the release (a capacity change).
func (e *engine) release(c *clusterState, j *job.Job) (capacityChanged bool) {
	before := c.machine.Capacity()
	c.machine.Finish(j)
	return c.machine.Capacity() != before
}

// noteEnd folds a job's completion instant into the global and
// per-cluster makespans.
func (e *engine) noteEnd(c *clusterState, end int64) {
	if end > e.res.Makespan {
		e.res.Makespan = end
	}
	if c.sub != nil && end > c.sub.Makespan {
		c.sub.Makespan = end
	}
}

// retire marks a job's exit from the system: it is counted, its ID
// index entry (if any) is closed so the pointer can be collected, and
// the sink observes its realized schedule.
func (e *engine) retire(c *clusterState, j *job.Job) {
	e.res.Finished++
	if c.sub != nil {
		c.sub.Finished++
	}
	if ent := e.ids[j.ID]; ent != nil {
		if ent.named {
			ent.finished, ent.j = true, nil
		} else {
			delete(e.ids, j.ID)
		}
	}
	if e.sink != nil {
		e.sink.Observe(j)
	}
}

// handle processes one popped event and, unless the event was stale,
// runs the affected cluster's scheduling pass at its instant. The branch
// structure mirrors the paper's same-instant semantics; see the package
// comment.
func (e *engine) handle(ev eventq.Event[payload]) {
	now := ev.Time
	var c *clusterState
	switch ev.Kind {
	case eventq.Submit:
		j := ev.Payload.j
		if j.Canceled {
			return // canceled before submission: never enters the system
		}
		c = e.route(j, now)
		j.Prediction = j.ClampPrediction(c.predictor.Predict(j, now))
		j.SubmitPrediction = j.Prediction
		c.predictor.OnSubmit(j, now)
		c.queue = append(c.queue, j)
		c.policy.OnSubmit(j, now)
		if e.tracer != nil {
			e.traceSubmit(c, j, now)
		}
	case eventq.Finish:
		j := ev.Payload.j
		if j.Finished {
			return // stale: the job was killed by a cancellation
		}
		c = e.clusters[j.Cluster]
		changed := e.release(c, j)
		j.Finished = true
		j.End = now
		e.noteEnd(c, j.End)
		e.observeFinish(c, j, now)
		c.policy.OnFinish(j, now)
		if e.tracer != nil {
			e.traceFinish(c, j, now)
		}
		if changed {
			e.recordCapacity(c, now)
			if e.tracer != nil {
				e.traceCapacity(c, now, 0)
			}
			c.policy.OnCapacityChange(now, c.machine)
		}
		e.retire(c, j)
		if e.arena != nil {
			e.arena.Recycle(j)
		}
	case eventq.Cancel:
		var runPass bool
		c, runPass = e.handleCancel(ev.Payload.id, now)
		if !runPass {
			return
		}
	case eventq.Drain:
		c = e.clusters[ev.Payload.cluster]
		before := c.machine.Capacity()
		c.machine.Drain(ev.Payload.procs)
		if c.machine.Capacity() != before {
			e.recordCapacity(c, now)
		}
		if e.tracer != nil {
			// Traced even when fully pending: the eventual capacity
			// changed, which is what planning views react to.
			e.traceCapacity(c, now, -ev.Payload.procs)
		}
		// Even a fully pending drain changes the eventual capacity
		// every availability view plans against.
		c.policy.OnCapacityChange(now, c.machine)
	case eventq.Restore:
		c = e.clusters[ev.Payload.cluster]
		before := c.machine.Capacity()
		c.machine.Restore(ev.Payload.procs)
		if c.machine.Capacity() != before {
			e.recordCapacity(c, now)
		}
		if e.tracer != nil {
			e.traceCapacity(c, now, ev.Payload.procs)
		}
		c.policy.OnCapacityChange(now, c.machine)
	case eventq.Expiry:
		j := ev.Payload.j
		if j.Finished || !j.Started {
			return // stale: the job completed at this same instant or earlier
		}
		if j.PredictedEnd() > now {
			return // stale: a correction already extended the prediction
		}
		c = e.clusters[j.Cluster]
		elapsed := now - j.Start
		next := e.corrector.Correct(elapsed, j.Request, j.Corrections)
		next = j.ClampPrediction(next)
		if next <= elapsed {
			// Progress guard: a correction that does not extend the
			// prediction would loop; push it just past the present.
			next = elapsed + 1
			if next > j.Request {
				next = j.Request
			}
		}
		j.Prediction = next
		j.Corrections++
		e.res.Corrections++
		if c.sub != nil {
			c.sub.Corrections++
		}
		c.policy.OnExpiry(j, now)
		if e.tracer != nil {
			e.traceCorrect(c, j, now)
		}
		if j.PredictedEnd() < j.Start+j.Runtime {
			e.q.Push(j.PredictedEnd(), eventq.Expiry, payload{j: j})
		}
	}
	if c.sub != nil {
		c.sub.Events++
	}
	e.schedulePass(c, now)
}

// handleCancel removes a job from the system — before submission, from
// its cluster's queue, or killing it mid-run — and reports the affected
// cluster and whether the scheduling pass should run (false only for
// stale cancellations).
func (e *engine) handleCancel(id, now int64) (c *clusterState, runPass bool) {
	ent := e.ids[id]
	if ent == nil || ent.finished || ent.canceled {
		return nil, false // stale: absent, already completed or already canceled
	}
	if ent.j == nil {
		// Not admitted yet (or never will be): mark the ID so a later
		// admission is dropped on arrival. The job was never routed, so
		// no cluster state changed; the pass runs where a single-machine
		// run would run it.
		ent.canceled = true
		return e.clusters[0], true
	}
	j := ent.j
	ent.canceled = true
	j.Canceled = true
	e.res.Canceled++
	c = e.clusters[j.Cluster]
	if e.tracer != nil && j.Started {
		e.traceCancel(c, j, now)
	}
	if j.Started {
		// Kill the running job: it occupied the machine for exactly
		// now-Start seconds, which becomes its realized runtime.
		if c.sub != nil {
			c.sub.Canceled++
		}
		changed := e.release(c, j)
		j.Finished = true
		j.End = now
		j.Runtime = now - j.Start
		e.noteEnd(c, j.End)
		e.observeFinish(c, j, now)
		c.policy.OnCancel(j, now)
		if e.tracer != nil {
			// A killed job still retires with a realized schedule; the
			// finish event carries it, like the sink observation does.
			e.traceFinish(c, j, now)
		}
		if changed {
			e.recordCapacity(c, now)
			if e.tracer != nil {
				e.traceCapacity(c, now, 0)
			}
			c.policy.OnCapacityChange(now, c.machine)
		}
		e.retire(c, j)
		return c, true
	}
	// Still waiting (or, if absent from the queue, not yet submitted —
	// the Submit event will observe Canceled). A queued job was routed,
	// so its cluster index is authoritative; an unrouted one leaves no
	// per-cluster trace.
	removed := false
	for i, qj := range c.queue {
		if qj == j {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			c.policy.OnCancel(j, now)
			if c.sub != nil {
				c.sub.Canceled++
			}
			removed = true
			break
		}
	}
	if e.tracer != nil {
		// A queued job's cluster is authoritative; an unsubmitted one
		// belongs to none yet.
		if removed {
			e.traceCancel(c, j, now)
		} else {
			e.traceCancel(nil, j, now)
		}
	}
	ent.j = nil // never runs; release the pointer
	return c, true
}
