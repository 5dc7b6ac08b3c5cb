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
// predict.Predictor) so they can maintain persistent acceleration
// structures — a prediction-ordered backfill index for EASY-SJBF, a
// cached shadow reservation for EASY, and a persistent availability
// profile plus per-instant decision cache for Conservative — instead of
// recomputing everything from scratch at every Pick. The from-scratch
// formulations survive as ReferenceEASY and ReferenceConservative (see
// reference.go); property tests assert the incremental policies make
// decision-for-decision identical schedules.
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
// SJBF index orders by (prediction, submit, ID); the machine's release
// order by (instant, ID)), so "equal" jobs cannot reorder between runs.
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
	"slices"
	"sort"

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
	// a correction installed a new one (j.Prediction is already updated).
	OnExpiry(j *job.Job, now int64)
	// OnCancel tells the policy a job left the system without completing:
	// removed from the waiting queue, or killed while running (j.Started
	// distinguishes the two). The engine has already updated the queue
	// and the machine.
	OnCancel(j *job.Job, now int64)
	// OnCapacityChange tells the policy the machine's realized or
	// eventual capacity changed — a node drain or restore, or a pending
	// drain absorbing a completion's processors — so any cached
	// availability view is stale.
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

// predLess is the SJBF scan order: shortest prediction first, with
// submission time and job ID as deterministic tie-breakers. Predictions
// are fixed while a job waits (corrections only touch running jobs), so
// an index sorted by predLess stays sorted until jobs enter or leave.
func predLess(a, b *job.Job) bool {
	if a.Prediction != b.Prediction {
		return a.Prediction < b.Prediction
	}
	if a.Submit != b.Submit {
		return a.Submit < b.Submit
	}
	return a.ID < b.ID
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
// The implementation is incremental: the shadow reservation is computed
// once per (instant, head) and updated in O(1) as backfill jobs start
// (a feasible backfill start never moves the shadow; it only consumes
// extra processors when it outlives the shadow), and the SJBF candidate
// order is a persistent sorted index maintained by the lifecycle hooks
// instead of a fresh copy-and-sort of the queue at every Pick.
type EASY struct {
	// Backfill is the candidate scan order.
	Backfill Order

	m *platform.Machine // machine the cached state mirrors

	// index holds the queued jobs in predLess order (SJBF only).
	// indexOK reports whether the hooks have kept it in lockstep with
	// the queue; when false (or on a length mismatch) Pick rebuilds it.
	index   []*job.Job
	indexOK bool

	// Cached head reservation, valid for (resNow, resHead) while resOK.
	resOK     bool
	resNow    int64
	resHead   int64
	resShadow int64
	resExtra  int64
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

// reset discards all incremental state when the policy meets a new
// machine (a fresh simulation reusing the policy value).
func (e *EASY) reset(m *platform.Machine) {
	e.m = m
	e.index = e.index[:0]
	e.indexOK = true
	e.resOK = false
}

func (e *EASY) rebuildIndex(queue []*job.Job) {
	e.index = append(e.index[:0], queue...)
	slices.SortFunc(e.index, func(a, b *job.Job) int {
		if predLess(a, b) {
			return -1
		}
		if predLess(b, a) {
			return 1
		}
		return 0
	})
	e.indexOK = true
}

// Pick implements Policy.
func (e *EASY) Pick(now int64, m *platform.Machine, queue []*job.Job) *job.Job {
	if m != e.m {
		e.reset(m)
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
	if !e.resOK || e.resNow != now || e.resHead != head.ID {
		e.resShadow, e.resExtra = m.Reservation(now, head.Procs)
		e.resNow, e.resHead, e.resOK = now, head.ID, true
	}
	shadow, extra := e.resShadow, e.resExtra
	if e.Backfill == SJBFOrder {
		if !e.indexOK || len(e.index) != len(queue) {
			e.rebuildIndex(queue)
		}
		// The index is sorted by prediction (predLess), so the jobs
		// predicted to complete by the shadow time form a prefix whose
		// end a binary search finds; within it any job narrow enough to
		// fit backfills. Past the prefix, only jobs narrow enough to fit
		// inside the extra processors qualify — and when there are none,
		// the whole suffix scan vanishes. The split preserves the exact
		// first-match-in-index-order semantics of the single scan: every
		// prefix position precedes every suffix position, and the
		// admission test is equivalent on each side of the cutoff.
		cutoff := shadow - now
		k := sort.Search(len(e.index), func(i int) bool { return e.index[i].Prediction > cutoff })
		for _, c := range e.index[:k] {
			if c != head && c.Procs <= free {
				return c
			}
		}
		lim := extra
		if free < lim {
			lim = free
		}
		if lim > 0 {
			for _, c := range e.index[k:] {
				if c != head && c.Procs <= lim {
					return c
				}
			}
		}
		return nil
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
// The shadow reservation is untouched — it depends only on the running
// jobs and the head's width, neither of which a submission changes.
func (e *EASY) OnSubmit(j *job.Job, _ int64) {
	if e.Backfill != SJBFOrder || !e.indexOK {
		return
	}
	i := sort.Search(len(e.index), func(i int) bool { return predLess(j, e.index[i]) })
	e.index = append(e.index, nil)
	copy(e.index[i+1:], e.index[i:])
	e.index[i] = j
}

// dropFromIndex removes a job leaving the waiting queue from the SJBF
// index, marking the index desynchronized if the job is unknown.
func (e *EASY) dropFromIndex(j *job.Job) {
	if e.Backfill != SJBFOrder || !e.indexOK {
		return
	}
	i := sort.Search(len(e.index), func(i int) bool { return !predLess(e.index[i], j) })
	if i < len(e.index) && e.index[i] == j {
		e.index = append(e.index[:i], e.index[i+1:]...)
	} else {
		e.indexOK = false // unknown job: the index lost sync with the queue
	}
}

// OnStart implements Policy: the started job leaves the SJBF index, and
// the cached shadow reservation is updated in O(1) — a backfill start at
// the cached instant never moves the shadow (it either completes before
// it or fits in the extra processors), it only consumes extra capacity
// when it outlives the shadow.
func (e *EASY) OnStart(j *job.Job, now int64) {
	e.dropFromIndex(j)
	if !e.resOK {
		return
	}
	if now != e.resNow || j.ID == e.resHead {
		e.resOK = false
		return
	}
	if now+j.Prediction <= e.resShadow {
		return
	}
	e.resExtra -= j.Procs
	if e.resExtra < 0 {
		// The start was not a feasible backfill against the cached
		// reservation (hooks driven outside the usual Pick loop).
		e.resOK = false
	}
}

// OnFinish implements Policy: a completion frees processors, so the
// shadow may move earlier — drop the cached reservation.
func (e *EASY) OnFinish(*job.Job, int64) { e.resOK = false }

// OnExpiry implements Policy: a corrected prediction moves a running
// job's release instant, so the cached reservation is stale.
func (e *EASY) OnExpiry(*job.Job, int64) { e.resOK = false }

// OnCancel implements Policy: a canceled waiting job leaves the SJBF
// index; either way (queued removal or running kill) the availability
// the cached reservation was computed from changed.
func (e *EASY) OnCancel(j *job.Job, _ int64) {
	if !j.Started {
		e.dropFromIndex(j)
	}
	e.resOK = false
}

// OnCapacityChange implements Policy: the shadow reservation depends on
// the capacity step function, so it must be recomputed.
func (e *EASY) OnCapacityChange(int64, *platform.Machine) { e.resOK = false }

// Conservative is conservative backfilling: every queued job holds a
// reservation computed in arrival order against the predicted
// availability profile, and a job starts only when its reservation is
// now. Reservations are recomputed at every scheduling event (the
// "recompute at each new event" variant the paper describes), which lets
// completions earlier than predicted compress the schedule.
//
// The implementation is incremental along two axes. Across events, the
// running jobs' availability profile persists: starts reserve into it,
// early completions release the unused reservation tail
// (platform.Profile.Release), corrections extend it, and the origin
// advances with the clock (platform.Profile.Advance) so dead history is
// compacted away — no per-event ProfileFromMachine rebuild. Within an
// event, the queue scan runs once against a scratch copy of that
// profile and its decisions are cached: the engine's repeated Pick calls
// after each started job pop from the cache in O(1), because starting a
// job it picked converts the job's queued reservation into an identical
// running reservation and therefore changes nothing the remaining
// decisions depend on.
//
// The scan also stops early. Reserving only ever removes processors
// from the scratch profile, so a queued job that cannot start now
// against the reservations made so far cannot start now against the
// full set either. Once no job left in the queue fits at now, the
// remaining reservations could only place jobs later, which no decision
// at this instant depends on, so the scan ends there with the cache
// already complete.
type Conservative struct {
	m *platform.Machine

	// base carries the running jobs' reservations from the current
	// origin onward. ends tracks each running job's live reservation;
	// releases is a lazy min-heap over predicted ends used to find
	// overdue jobs (predicted end <= now) without scanning all of them.
	base     *platform.Profile
	ends     map[int64]resv
	releases releaseHeap

	// scratch is the per-instant scan profile: base, plus [now, now+1)
	// overlays for overdue running jobs (platform.ReleaseInstant
	// semantics), plus the queued jobs' reservations in arrival order.
	// cut reports that the scan stopped early, so scratch lacks the
	// reservations of the jobs it did not reach.
	scratch *platform.Profile
	cut     bool

	// cache lists the jobs whose reservation is exactly now, in queue
	// order; cacheIdx advances as they start.
	cacheOK  bool
	cacheNow int64
	cache    []*job.Job
	cacheIdx int

	// degraded is set while the machine carries a pending drain: the
	// drain absorbs predicted releases in release order, so per-job
	// reservations no longer compose and the base profile is rebuilt
	// from the machine's effective view at every Pick (the same
	// construction the reference policy uses) until the drain settles.
	degraded bool

	overdue []heapEntry // reusable scratch for overdue collection
}

type resv struct {
	end   int64
	procs int64
}

// NewConservative returns an incremental conservative backfilling policy.
func NewConservative() *Conservative {
	return &Conservative{ends: make(map[int64]resv)}
}

// Name implements Policy.
func (*Conservative) Name() string { return "Conservative" }

// desync forces a full rebuild from the machine at the next Pick.
func (c *Conservative) desync() {
	c.m = nil
	c.cacheOK = false
}

// resync rebuilds all incremental state from the machine.
func (c *Conservative) resync(m *platform.Machine, now int64) {
	c.m = m
	c.degraded = m.PendingDrain() > 0
	if c.base == nil {
		c.base = platform.NewProfile(now, m.Total())
		c.scratch = platform.NewProfile(now, m.Total())
	}
	clear(c.ends)
	c.releases = c.releases[:0]
	if c.degraded {
		// The effective view already folds overdue predictions and
		// drain absorption in; ends/releases stay empty so the overdue
		// overlay in rescan is a no-op.
		m.FillAvailability(c.base, now)
	} else {
		c.base.Reset(now, m.Capacity())
		for _, j := range m.Running() {
			c.track(j, now)
		}
	}
	c.cacheOK = false
}

// track records a running job's reservation in the base profile. An
// already overdue prediction (end <= now) reserves nothing — the scan
// overlay handles it, mirroring platform.ReleaseInstant.
func (c *Conservative) track(j *job.Job, now int64) {
	end := j.PredictedEnd()
	if end > now {
		c.base.Reserve(now, end, j.Procs)
	}
	c.ends[j.ID] = resv{end: end, procs: j.Procs}
	c.releases.push(heapEntry{at: end, id: j.ID})
}

// Pick implements Policy.
func (c *Conservative) Pick(now int64, m *platform.Machine, queue []*job.Job) *job.Job {
	if m != c.m || c.degraded || len(c.ends) != m.RunningCount() {
		c.resync(m, now)
	}
	c.base.Advance(now)
	if len(queue) == 0 {
		return nil
	}
	if !c.cacheOK || c.cacheNow != now {
		c.rescan(now, queue)
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
func (c *Conservative) rescan(now int64, queue []*job.Job) {
	c.scratch.CopyFrom(c.base)
	// Overlay overdue running jobs: their processors are demonstrably
	// busy at now and predicted to release "any moment", i.e. at now+1.
	c.overdue = c.overdue[:0]
	for len(c.releases) > 0 {
		top := c.releases[0]
		r, live := c.ends[top.id]
		if !live || r.end != top.at {
			c.releases.pop() // superseded by a finish or a correction
			continue
		}
		if top.at > now {
			break
		}
		c.releases.pop()
		c.overdue = append(c.overdue, top)
	}
	for _, o := range c.overdue {
		c.releases.push(o) // keep for later events at this instant
		c.scratch.Reserve(now, now+1, c.ends[o.id].procs)
	}
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
	duration := j.Prediction
	if duration < 1 {
		duration = 1
	}
	start := c.scratch.FindStart(now, duration, j.Procs)
	if start == now {
		c.cache = append(c.cache, j)
	}
	if start < platform.InfiniteTime {
		c.scratch.Reserve(start, start+duration, j.Procs)
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
// reservation (already in scratch) into an identical running reservation
// in base, so when it is the cached decision the rest of the cache stays
// valid.
func (c *Conservative) OnStart(j *job.Job, now int64) {
	if c.cacheOK && c.cacheNow == now && c.cacheIdx < len(c.cache) && c.cache[c.cacheIdx] == j {
		c.cacheIdx++
	} else {
		c.cacheOK = false
	}
	if c.m == nil {
		return // never synced; the next Pick rebuilds from the machine
	}
	if now < c.base.Start() {
		c.desync() // clock moved backwards: hooks driven out of order
		return
	}
	if _, dup := c.ends[j.ID]; dup {
		c.desync() // already tracked (e.g. via resync): hooks out of step
		return
	}
	c.track(j, now)
}

// OnFinish implements Policy: release the unused tail of the job's
// reservation so the availability timeline compresses without a rebuild.
func (c *Conservative) OnFinish(j *job.Job, now int64) {
	c.cacheOK = false
	r, ok := c.ends[j.ID]
	if !ok {
		return
	}
	delete(c.ends, j.ID)
	if c.m == nil {
		return
	}
	if now < c.base.Start() {
		c.desync()
		return
	}
	if r.end > now {
		c.base.Release(now, r.end, r.procs)
	}
	// r.end <= now: the reservation already lapsed (overdue prediction);
	// the stale heap entry is discarded lazily.
}

// OnExpiry implements Policy: extend the job's reservation to its
// corrected predicted end.
func (c *Conservative) OnExpiry(j *job.Job, now int64) {
	c.cacheOK = false
	r, ok := c.ends[j.ID]
	if !ok {
		return
	}
	if c.m == nil {
		return
	}
	if now < c.base.Start() {
		c.desync()
		return
	}
	from := r.end
	if from < now {
		from = now
	}
	end := j.PredictedEnd()
	if end > from {
		c.base.Reserve(from, end, j.Procs)
	}
	c.ends[j.ID] = resv{end: end, procs: j.Procs}
	c.releases.push(heapEntry{at: end, id: j.ID})
}

// OnCancel implements Policy. A canceled waiting job invalidates every
// later queued reservation; a killed running job releases its
// reservation exactly like an early completion.
func (c *Conservative) OnCancel(j *job.Job, now int64) {
	if j.Started {
		c.OnFinish(j, now)
		return
	}
	c.cacheOK = false
}

// OnCapacityChange implements Policy: the base profile's capacity
// ceiling (and, under a pending drain, the shape of every future
// release) changed, so all incremental state is rebuilt at the next
// Pick.
func (c *Conservative) OnCapacityChange(int64, *platform.Machine) { c.desync() }

// heapEntry is one (predicted end, job ID) pair in the lazy release heap.
type heapEntry struct {
	at int64
	id int64
}

// releaseHeap is a binary min-heap by release instant. Entries are lazy:
// a finish or correction leaves the old entry in place, and consumers
// validate entries against the ends map before trusting them.
type releaseHeap []heapEntry

func (h *releaseHeap) push(e heapEntry) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent].at <= s[i].at {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

func (h *releaseHeap) pop() heapEntry {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && s[left].at < s[smallest].at {
			smallest = left
		}
		if right < n && s[right].at < s[smallest].at {
			smallest = right
		}
		if smallest == i {
			break
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
	return top
}
