// Package platform models the computing resource the jobs compete for: a
// pool of identical processors (the paper assumes no interconnection
// topology). Unlike the paper's static testbed, the pool's capacity is a
// step function of time: node drains and maintenance windows remove
// processors from service and restores return them, so the machine tracks
// both its nominal size and the capacity currently (and eventually) in
// service. It tracks free capacity and the set of running jobs with their
// *predicted* completion times, and answers the two questions backfilling
// needs: "when can a job of width q start at the latest estimate?" (the
// EASY shadow time and extra processors) and "what does the whole future
// availability profile look like?" (conservative backfilling).
//
// The running jobs are kept in predicted-end order, so the machine is the
// only writer of a running job's prediction: a correction goes through
// Machine.Correct, never through a direct write to job.Prediction.
//
// Drains are graceful: a drain claims idle processors immediately and
// waits for busy ones, absorbing them as their jobs complete. Running
// jobs are never killed by a capacity change, so the invariant
// used <= Capacity() holds at every instant, and PendingDrain() > 0
// implies Free() == 0.
package platform

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/job"
)

// Machine is the processor pool plus running-job bookkeeping.
type Machine struct {
	total        int64 // nominal machine size m
	capacity     int64 // processors currently in service (total - applied drains)
	free         int64 // processors in service and idle
	pendingDrain int64 // drained-but-busy processors, absorbed as jobs finish

	// order holds one entry per running job, sorted by descending
	// (predicted end, ID): the earliest predicted release sits at the
	// tail, where finishes and corrections mostly remove, and the
	// availability queries walk it from there. Start, Finish and Correct
	// keep it sorted, which is why the machine must be the only writer
	// of a running job's prediction. Entries are pointer-free, so their
	// memmoves pay no GC write barriers; jobs maps an entry's slot back
	// to its job, and freeSlots recycles the slots of finished jobs.
	order     []runEntry
	jobs      []*job.Job
	freeSlots []int
}

// runEntry is one running job in the release order.
type runEntry struct {
	end   int64 // predicted end, Start + Prediction
	id    int64
	procs int64
	slot  int // index into Machine.jobs
}

// New creates a machine with the given processor count, fully in service.
func New(totalProcs int64) *Machine {
	if totalProcs <= 0 {
		panic(fmt.Sprintf("platform: non-positive machine size %d", totalProcs))
	}
	return &Machine{total: totalProcs, capacity: totalProcs, free: totalProcs}
}

// Total returns the nominal machine size m.
func (m *Machine) Total() int64 { return m.total }

// Capacity returns the processors currently in service (drained
// processors excluded). Always >= the running jobs' usage.
func (m *Machine) Capacity() int64 { return m.capacity }

// PendingDrain returns the processors a drain has claimed but that are
// still busy; they leave service as their jobs complete.
func (m *Machine) PendingDrain() int64 { return m.pendingDrain }

// EventualCapacity returns the capacity the machine converges to once
// all pending drains are absorbed: Capacity() - PendingDrain(). This is
// the ceiling availability planning must use — absorbed processors never
// come back without a Restore.
func (m *Machine) EventualCapacity() int64 { return m.capacity - m.pendingDrain }

// Free returns the currently idle in-service processor count.
func (m *Machine) Free() int64 { return m.free }

// RunningCount returns the number of running jobs.
func (m *Machine) RunningCount() int { return len(m.order) }

// Start allocates the job's processors and enters the job in the release
// order under its predicted end. It is the caller's responsibility to
// have set j.Start and j.Prediction; from here until Finish, only
// Correct may change them. Start panics if capacity would be exceeded or
// the job is already running under the same predicted end — scheduler
// bugs, not input errors.
func (m *Machine) Start(j *job.Job) {
	if j.Procs > m.free {
		panic(fmt.Sprintf("platform: job %d needs %d procs but only %d free", j.ID, j.Procs, m.free))
	}
	e := runEntry{end: j.PredictedEnd(), id: j.ID, procs: j.Procs}
	i, dup := m.find(e.end, e.id)
	if dup {
		panic(fmt.Sprintf("platform: job %d started twice", j.ID))
	}
	m.free -= j.Procs
	if n := len(m.freeSlots); n > 0 {
		e.slot = m.freeSlots[n-1]
		m.freeSlots = m.freeSlots[:n-1]
		m.jobs[e.slot] = j
	} else {
		e.slot = len(m.jobs)
		m.jobs = append(m.jobs, j)
	}
	m.order = slices.Insert(m.order, i, e)
}

// Finish releases the job's processors. A pending drain absorbs the
// freed processors before they return to the idle pool, shrinking the
// in-service capacity.
func (m *Machine) Finish(j *job.Job) {
	e := m.remove(j, "finished")
	m.jobs[e.slot] = nil
	m.freeSlots = append(m.freeSlots, e.slot)
	freed := j.Procs
	if m.pendingDrain > 0 {
		take := m.pendingDrain
		if take > freed {
			take = freed
		}
		m.pendingDrain -= take
		m.capacity -= take
		freed -= take
	}
	m.free += freed
	if m.free > m.capacity {
		panic(fmt.Sprintf("platform: free %d exceeds capacity %d after finishing job %d", m.free, m.capacity, j.ID))
	}
}

// Correct installs a corrected prediction for a running job and moves
// the job to its new place in the release order. It is the only way a
// running job's prediction may change: writing j.Prediction directly
// would leave the order stale. Correct panics if j is not running.
func (m *Machine) Correct(j *job.Job, prediction int64) {
	e := m.remove(j, "corrected")
	j.Prediction = prediction
	e.end = j.PredictedEnd()
	i, _ := m.find(e.end, e.id)
	m.order = slices.Insert(m.order, i, e)
}

// find returns the position of the key (end, id) in the descending
// release order — where it is, or where it would be inserted — and
// whether an entry with that key is there.
func (m *Machine) find(end, id int64) (int, bool) {
	lo, hi := 0, len(m.order)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if e := m.order[h]; e.end > end || (e.end == end && e.id > id) {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo, lo < len(m.order) && m.order[lo].end == end && m.order[lo].id == id
}

// remove takes the running job j out of the release order and returns
// its entry. The entry is looked up under j's current predicted end, so
// a job that is not running, or whose prediction changed behind the
// machine's back, panics with what was attempted.
func (m *Machine) remove(j *job.Job, what string) runEntry {
	i, ok := m.find(j.PredictedEnd(), j.ID)
	if !ok || m.jobs[m.order[i].slot] != j {
		panic(fmt.Sprintf("platform: job %d %s but was not running", j.ID, what))
	}
	e := m.order[i]
	m.order = slices.Delete(m.order, i, i+1)
	return e
}

// Drain removes up to procs processors from service (a node failure or
// the start of a maintenance window). Idle processors leave immediately;
// busy ones are marked pending and absorbed as their jobs complete. The
// request is clamped so the eventual capacity never goes negative. It
// returns the processors taken out of service immediately.
func (m *Machine) Drain(procs int64) (applied int64) {
	if procs <= 0 {
		panic(fmt.Sprintf("platform: non-positive drain %d", procs))
	}
	if eventual := m.EventualCapacity(); procs > eventual {
		procs = eventual
	}
	if procs <= 0 {
		return 0
	}
	applied = procs
	if applied > m.free {
		applied = m.free
	}
	m.free -= applied
	m.capacity -= applied
	m.pendingDrain += procs - applied
	return applied
}

// Restore returns up to procs processors to service (a node recovery or
// the end of a maintenance window). It first cancels pending drains,
// then brings drained capacity back, never exceeding the nominal size.
// It returns the processors returned to service immediately.
func (m *Machine) Restore(procs int64) (restored int64) {
	if procs <= 0 {
		panic(fmt.Sprintf("platform: non-positive restore %d", procs))
	}
	if cancel := m.pendingDrain; cancel > 0 {
		if cancel > procs {
			cancel = procs
		}
		m.pendingDrain -= cancel
		procs -= cancel
	}
	restored = m.total - m.capacity
	if restored > procs {
		restored = procs
	}
	m.capacity += restored
	m.free += restored
	return restored
}

// InfiniteTime stands in for "never" in reservation computations.
const InfiniteTime = int64(math.MaxInt64 / 4)

// ReleaseInstant returns the instant a running job's processors should be
// treated as released by availability computations: its predicted end, or
// now+1 when the prediction is overdue (the job has outlived it but is
// still running, so "any moment now" — strictly after now, since the
// processors are demonstrably not free at now). Machine.Reservation and
// FillAvailability apply the same clamp so the EASY and conservative
// availability views cannot drift apart.
func ReleaseInstant(j *job.Job, now int64) int64 {
	return releaseAt(j.PredictedEnd(), now)
}

func releaseAt(end, now int64) int64 {
	return max(end, now+1)
}

// nextRelease sums the processors released at one instant, walking the
// release order down from index i, which must be the first entry of that
// instant. It returns the instant, the sum and the index of the first
// entry of the next instant (-1 past the last). Overdue entries all map
// to now+1, and every other end is later, so the instants come out in
// ascending order even though the overdue entries are sorted by their
// stale ends.
func (m *Machine) nextRelease(i int, now int64) (at, procs int64, next int) {
	at = releaseAt(m.order[i].end, now)
	for ; i >= 0 && releaseAt(m.order[i].end, now) == at; i-- {
		procs += m.order[i].procs
	}
	return at, procs, i
}

// Reservation computes EASY's single reservation for a job of width
// procs: the shadow time (earliest instant the job is predicted to have
// enough processors) and the extra processors (processors free at the
// shadow time beyond the reserved job's need, usable by backfilled jobs
// that outlive the shadow time). Completion instants are taken from the
// running jobs' predictions via ReleaseInstant (an overdue prediction
// means "just after now"); a pending drain absorbs the earliest releases,
// so their processors never rejoin the pool. A job wider than the
// eventual capacity gets (InfiniteTime, 0): it cannot start until a
// restore grows the machine.
//
// This is EASY's per-event hot path. It walks the release order from
// the earliest end and stops at the first instant whose releases cover
// the request, so it costs the releases it needs, not the running set.
// The drain absorbs min(pending, released) of everything released so
// far whatever order the releases come in, so the processors available
// after an instant depend only on which releases precede it; coverage is
// tested only after an instant's last release, which makes the result
// exact although the overdue entries are not in (instant, ID) order.
func (m *Machine) Reservation(now int64, procs int64) (shadow int64, extra int64) {
	if procs <= m.free {
		return now, m.free - procs
	}
	if procs > m.EventualCapacity() {
		return InfiniteTime, 0
	}
	var released int64
	for i := len(m.order) - 1; i >= 0; {
		at, gain, next := m.nextRelease(i, now)
		released += gain
		if avail := m.free + max(0, released-m.pendingDrain); avail >= procs {
			return at, avail - procs
		}
		i = next
	}
	// Unreachable for procs <= EventualCapacity(): every job eventually
	// releases and pending drains never exceed the running usage.
	return InfiniteTime, 0
}

// FillAvailability resets p to the machine's predicted availability view
// from now on: capacity ceiling at the eventual capacity, the current
// idle processors free at now, and the running jobs' releases, net of
// pending-drain absorption, growing availability at their ReleaseInstant.
// It is the one construction conservative backfilling plans against,
// shared by the policy and ProfileFromMachine so the two cannot drift
// apart.
//
// It builds p in one pass over the release order with Reservation's
// arithmetic: availability starts at the idle processors, and each
// instant whose releases outgrow the pending drain adds one breakpoint,
// so p comes out coalesced — segment for segment the profile one Reserve
// per release would leave — in O(R) rather than O(R²), reusing p's
// backing arrays.
func (m *Machine) FillAvailability(p *Profile, now int64) {
	p.Reset(now, m.EventualCapacity())
	p.available[0] = m.free
	var released int64
	for i := len(m.order) - 1; i >= 0; {
		at, procs, next := m.nextRelease(i, now)
		released += procs
		if avail := m.free + max(0, released-m.pendingDrain); avail != p.available[len(p.available)-1] {
			p.times = append(p.times, at)
			p.available = append(p.available, avail)
		}
		i = next
	}
}
