// Package sched implements the scheduling policies of Section 5: plain
// FCFS, EASY backfilling with either FCFS or shortest-predicted-job-first
// (SJBF) backfill order, and — as the related-work baseline — conservative
// backfilling. Given the instant, the machine state and the FCFS waiting
// queue, Pick returns the single next job to start now, or nil. The
// simulation engine starts that job and asks again, so every decision is
// made against fully current state; restarting the scan after each start
// is equivalent to the textbook one-pass EASY scan (starting a feasible
// backfill job never moves the head job's shadow time).
//
// Policies are stateful scheduling sessions: the engine drives them
// through lifecycle hooks (OnSubmit/OnStart/OnFinish/OnExpiry, mirroring
// predict.Predictor). Availability is never copied into a policy: EASY
// asks the machine for its shadow reservation (Machine.Reservation) and
// Conservative refills its profile from the machine
// (Machine.FillAvailability) at each instant it plans, both read from the
// machine's release order. What the hooks maintain is what the machine
// does not know: EASY-SJBF's backfill index, kept in prediction order and
// cut into blocks that record their narrowest width, and Conservative's
// per-instant decision cache. The from-scratch formulations survive as
// ReferenceEASY and ReferenceConservative (see reference.go); property
// tests assert the policies make decision-for-decision identical
// schedules.
//
// A policy instance must either be driven through its hooks in lockstep
// with the machine (what sim.Run does) or be used fresh for a single
// decision; Pick detects a machine swap and desynchronized queues and
// falls back to a full rebuild, but it cannot detect arbitrary external
// mutation of a queue it has already indexed.
//
// # Determinism invariants
//
// Every Pick decision is a pure function of (instant, machine state,
// queue order) — no map iteration, randomness or wall clock — and every
// ordering a policy maintains breaks ties on the unique job ID (the
// SJBF index orders by (prediction, submit, ID), sorting stably where
// those tie; the machine's release order by (predicted end, ID)), so
// "equal" jobs cannot reorder between runs.
// Routers (router.go) extend the same contract to the federated layer:
// Route is a pure function of the job and the per-cluster states, and
// the engine consults it exactly once per job in trace submission
// order (see the sim package comment).
//
// # Checkpointing versus replay
//
// Policy sessions are deliberately not snapshottable: the acceleration
// structures hold pointers into live *job.Job values shared with the
// machine and the engine's event queue, so a faithful deep copy would
// have to remap every pointer across three layers in one consistent
// cut — a copy contract each policy would then have to maintain
// forever. Consumers that need a hypothetical fork (the schedd
// daemon's what-if endpoint) instead rebuild a fresh policy session by
// replaying the command history through a new engine: determinism
// (above) guarantees the replica reaches the identical decision state,
// the cost is O(history) compute instead of O(state) copying, and the
// live session is never perturbed. That trade is why Policy has
// lifecycle hooks but no Clone.
package sched

import (
	"repro/internal/job"
	"repro/internal/platform"
)

// Policy selects the next waiting job to start and observes the job
// lifecycle to keep its internal acceleration structures current.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Pick returns a waiting job to start at instant now, or nil if none
	// may start. queue is in FCFS order and must not be mutated.
	Pick(now int64, m *platform.Machine, queue []*job.Job) *job.Job
	// OnSubmit tells the policy a job joined the waiting queue (its
	// prediction is already set).
	OnSubmit(j *job.Job, now int64)
	// OnStart tells the policy a previously picked job began execution.
	OnStart(j *job.Job, now int64)
	// OnFinish tells the policy a running job completed.
	OnFinish(j *job.Job, now int64)
	// OnExpiry tells the policy a running job outlived its prediction and
	// a correction installed a new one (platform.Machine.Correct has
	// already updated j.Prediction).
	OnExpiry(j *job.Job, now int64)
	// OnCancel tells the policy a job left the system without completing:
	// removed from the waiting queue, or killed while running (j.Started
	// distinguishes the two). The engine has already updated the queue
	// and the machine.
	OnCancel(j *job.Job, now int64)
	// OnCapacityChange tells the policy the machine's realized or
	// eventual capacity changed — a node drain or restore, or a pending
	// drain absorbing a completion's processors — so any decision
	// cached from the old availability is stale.
	OnCapacityChange(now int64, m *platform.Machine)
}

// noHooks provides empty lifecycle hooks for stateless policies.
type noHooks struct{}

func (noHooks) OnSubmit(*job.Job, int64)                  {}
func (noHooks) OnStart(*job.Job, int64)                   {}
func (noHooks) OnFinish(*job.Job, int64)                  {}
func (noHooks) OnExpiry(*job.Job, int64)                  {}
func (noHooks) OnCancel(*job.Job, int64)                  {}
func (noHooks) OnCapacityChange(int64, *platform.Machine) {}

// Order is the backfill scan order inside EASY.
type Order int

const (
	// FCFSOrder scans backfill candidates in arrival order (plain EASY).
	FCFSOrder Order = iota
	// SJBFOrder scans candidates shortest-predicted-first (EASY-SJBF,
	// Tsafrir et al. [24]).
	SJBFOrder
)

// String names the order.
func (o Order) String() string {
	if o == SJBFOrder {
		return "SJBF"
	}
	return "FCFS"
}

// FCFS runs jobs strictly in arrival order with no backfilling: the head
// job starts as soon as it fits; nothing overtakes it. It is stateless.
type FCFS struct{ noHooks }

// NewFCFS returns the FCFS policy.
func NewFCFS() FCFS { return FCFS{} }

// Name implements Policy.
func (FCFS) Name() string { return "FCFS" }

// Pick implements Policy.
func (FCFS) Pick(_ int64, m *platform.Machine, queue []*job.Job) *job.Job {
	if len(queue) == 0 {
		return nil
	}
	if queue[0].Procs <= m.Free() {
		return queue[0]
	}
	return nil
}

// EASY is aggressive backfilling with a single reservation: the queue
// head gets a reservation at its shadow time, and any other job may jump
// it if it fits now and either (a) is predicted to finish before the
// shadow time or (b) uses only processors left over at the shadow time.
//
// The shadow reservation is asked of the machine at every Pick that
// needs it: it walks only the releases it needs, and a cached copy
// measured no faster end to end. The SJBF candidate order is a
// persistent blocked index (sjbf.go) maintained by the lifecycle hooks
// instead of a fresh copy-and-sort of the queue at every Pick.
type EASY struct {
	// Backfill is the candidate scan order.
	Backfill Order

	m *platform.Machine // machine the index was built against

	// index holds the queued jobs in predLess order (SJBF only).
	// indexOK reports whether the hooks have kept it in lockstep with
	// the queue; when false (or on a length mismatch) Pick rebuilds it.
	index   sjbfIndex
	indexOK bool
}

// NewEASY returns an EASY policy with the given backfill order.
func NewEASY(order Order) *EASY { return &EASY{Backfill: order} }

// Name implements Policy.
func (e *EASY) Name() string {
	if e.Backfill == SJBFOrder {
		return "EASY-SJBF"
	}
	return "EASY"
}

// Pick implements Policy.
func (e *EASY) Pick(now int64, m *platform.Machine, queue []*job.Job) *job.Job {
	if m != e.m {
		// A fresh simulation reusing the policy value: its queue is new.
		e.m = m
		e.index.reset()
		e.indexOK = true
	}
	if len(queue) == 0 {
		return nil
	}
	head := queue[0]
	free := m.Free()
	if head.Procs <= free {
		return head
	}
	if len(queue) == 1 || free == 0 {
		// Every job needs at least one processor, so nothing can
		// backfill into an empty pool; skip the reservation entirely.
		return nil
	}
	shadow, extra := m.Reservation(now, head.Procs)
	if e.Backfill == SJBFOrder {
		if !e.indexOK || e.index.len() != len(queue) {
			e.index.rebuild(queue)
			e.indexOK = true
		}
		// The head is indexed too but never qualifies: it is wider than
		// free, and free bounds every admission.
		return e.index.first(shadow-now, free, min(extra, free))
	}
	for _, c := range queue[1:] {
		if c.Procs > free {
			continue
		}
		if now+c.Prediction <= shadow || c.Procs <= extra {
			return c
		}
	}
	return nil
}

// OnSubmit implements Policy: a new waiting job enters the SJBF index.
func (e *EASY) OnSubmit(j *job.Job, _ int64) {
	if e.Backfill != SJBFOrder || !e.indexOK {
		return
	}
	e.index.insert(j)
}

// dropFromIndex removes a job leaving the waiting queue from the SJBF
// index, marking the index desynchronized if the job is unknown.
func (e *EASY) dropFromIndex(j *job.Job) {
	if e.Backfill != SJBFOrder || !e.indexOK {
		return
	}
	if !e.index.remove(j) {
		e.indexOK = false // unknown job: the index lost sync with the queue
	}
}

// OnStart implements Policy: the started job leaves the SJBF index.
func (e *EASY) OnStart(j *job.Job, _ int64) { e.dropFromIndex(j) }

// OnFinish implements Policy. The machine holds the release order the
// shadow is computed from, so a finish leaves EASY nothing to update.
func (*EASY) OnFinish(*job.Job, int64) {}

// OnExpiry implements Policy; like OnFinish, it has nothing to update.
func (*EASY) OnExpiry(*job.Job, int64) {}

// OnCancel implements Policy: a canceled waiting job leaves the SJBF
// index.
func (e *EASY) OnCancel(j *job.Job, _ int64) {
	if !j.Started {
		e.dropFromIndex(j)
	}
}

// OnCapacityChange implements Policy; like OnFinish, it has nothing to
// update.
func (*EASY) OnCapacityChange(int64, *platform.Machine) {}

// Conservative is conservative backfilling: every queued job holds a
// reservation computed in arrival order against the predicted
// availability profile, and a job starts only when its reservation is
// now. Reservations are recomputed at every scheduling event (the
// "recompute at each new event" variant the paper describes), which lets
// completions earlier than predicted compress the schedule.
//
// At the first Pick of an instant, the scan refills a scratch profile
// from the machine (Machine.FillAvailability, which folds overdue
// predictions and pending drains in), reserves the queued jobs into it
// and caches its decisions: the engine's repeated Pick calls after each
// started job pop from the cache in O(1), because starting a job it
// picked converts the job's queued reservation into an identical running
// reservation and therefore changes nothing the remaining decisions
// depend on. Any other change to the machine or the queue invalidates
// the cache.
//
// The scan also stops early. Reserving only ever removes processors
// from the scratch profile, so a queued job that cannot start now
// against the reservations made so far cannot start now against the
// full set either. Once no job left in the queue fits at now, the
// remaining reservations could only place jobs later, which no decision
// at this instant depends on, so the scan ends there with the cache
// already complete.
type Conservative struct {
	// m is the machine scratch was filled from.
	m *platform.Machine

	// scratch is the per-instant scan profile: the machine's
	// availability plus the queued jobs' reservations in arrival order.
	// cut reports that the scan stopped early, so scratch lacks the
	// reservations of the jobs it did not reach.
	scratch platform.Profile
	cut     bool

	// cache lists the jobs whose reservation is exactly now, in queue
	// order; cacheIdx advances as they start.
	cacheOK  bool
	cacheNow int64
	cache    []*job.Job
	cacheIdx int
}

// NewConservative returns a conservative backfilling policy.
func NewConservative() *Conservative { return &Conservative{} }

// Name implements Policy.
func (*Conservative) Name() string { return "Conservative" }

// Pick implements Policy.
func (c *Conservative) Pick(now int64, m *platform.Machine, queue []*job.Job) *job.Job {
	if len(queue) == 0 {
		return nil
	}
	if !c.cacheOK || c.cacheNow != now || c.m != m {
		c.rescan(now, m, queue)
	}
	if c.cacheIdx < len(c.cache) {
		return c.cache[c.cacheIdx]
	}
	return nil
}

// rescan recomputes the queued jobs' reservations for this instant and
// fills the decision cache. It reserves in arrival order only while
// some job not yet scanned still fits at now: last walks back from the
// queue end past every job that does not, and once it passes the next
// job to scan the scan is cut. Reservations only remove processors, so
// a job that fails the test can never fit at now later in the scan,
// which keeps the walk one-way and the cut exact.
func (c *Conservative) rescan(now int64, m *platform.Machine, queue []*job.Job) {
	c.m = m
	m.FillAvailability(&c.scratch, now)
	c.cache = c.cache[:0]
	c.cut = false
	last := len(queue) - 1
	for k, j := range queue {
		for last >= k && !c.fitsNow(queue[last], now) {
			last--
		}
		if last < k {
			c.cut = true
			break
		}
		c.scanJob(j, now)
	}
	c.cacheNow = now
	c.cacheIdx = 0
	c.cacheOK = true
}

// scanJob computes one queued job's reservation against the scratch
// profile, appending it to the decision cache when it may start now.
func (c *Conservative) scanJob(j *job.Job, now int64) {
	if c.scratch.Place(now, j.Prediction, j.Procs) == now {
		c.cache = append(c.cache, j)
	}
}

// fitsNow reports whether j could start at now against the scratch
// profile's current reservations.
func (c *Conservative) fitsNow(j *job.Job, now int64) bool {
	return c.scratch.Fits(now, j.Prediction, j.Procs)
}

// OnSubmit implements Policy. A job submitted at the cached instant
// scans last in arrival order, so the reservations already computed are
// unaffected: extend the cached scan instead of discarding it. After a
// cut scan, scratch lacks the unscanned jobs' reservations; a newcomer
// that does not fit at now even so cannot start now, and one that does
// needs the full scan, so the next Pick rescans.
func (c *Conservative) OnSubmit(j *job.Job, now int64) {
	switch {
	case !c.cacheOK || c.cacheNow != now:
		c.cacheOK = false
	case !c.cut:
		c.scanJob(j, now)
	case c.fitsNow(j, now):
		c.cacheOK = false
	}
}

// OnStart implements Policy: the start converts the job's queued
// reservation (already in scratch) into an identical running
// reservation, so when it is the cached decision the rest of the cache
// stays valid.
func (c *Conservative) OnStart(j *job.Job, now int64) {
	if c.cacheOK && c.cacheNow == now && c.cacheIdx < len(c.cache) && c.cache[c.cacheIdx] == j {
		c.cacheIdx++
	} else {
		c.cacheOK = false
	}
}

// OnFinish implements Policy: the released processors may let queued
// jobs start earlier, so the cached decisions are stale.
func (c *Conservative) OnFinish(*job.Job, int64) { c.cacheOK = false }

// OnExpiry implements Policy: a corrected prediction moves a running
// job's release, so the cached decisions are stale.
func (c *Conservative) OnExpiry(*job.Job, int64) { c.cacheOK = false }

// OnCancel implements Policy: a canceled waiting job frees its
// reservation for every later queued job, and a killed running job
// releases its processors, so either way the cached decisions are stale.
func (c *Conservative) OnCancel(*job.Job, int64) { c.cacheOK = false }

// OnCapacityChange implements Policy: the machine's capacity ceiling or
// the absorption of its future releases changed, so the cached decisions
// are stale.
func (c *Conservative) OnCapacityChange(int64, *platform.Machine) { c.cacheOK = false }
