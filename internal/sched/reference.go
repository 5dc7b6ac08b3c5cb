package sched

import (
	"slices"

	"repro/internal/job"
	"repro/internal/platform"
)

// This file keeps the original from-scratch formulations of the EASY and
// conservative policies: every Pick recomputes the availability state of
// the world (EASY's shadow reservation, conservative's full profile and
// queue reservations) with no memory between calls. They are the
// executable specification the incremental policies in sched.go are
// checked against — property tests assert decision-for-decision
// identical schedules — and the baseline the BenchmarkSchedPick
// micro-benchmarks measure the incremental speedup from.

// ReferenceEASY is the from-scratch EASY/EASY-SJBF specification: the
// shadow reservation is recomputed and the SJBF candidate order re-sorted
// on every Pick.
type ReferenceEASY struct {
	noHooks
	// Backfill is the candidate scan order.
	Backfill Order
}

// Name implements Policy.
func (e ReferenceEASY) Name() string {
	if e.Backfill == SJBFOrder {
		return "EASY-SJBF"
	}
	return "EASY"
}

// Pick implements Policy.
func (e ReferenceEASY) Pick(now int64, m *platform.Machine, queue []*job.Job) *job.Job {
	if len(queue) == 0 {
		return nil
	}
	head := queue[0]
	free := m.Free()
	if head.Procs <= free {
		return head
	}
	if len(queue) == 1 {
		return nil
	}
	shadow, extra := m.Reservation(now, head.Procs)
	candidates := queue[1:]
	if e.Backfill == SJBFOrder {
		candidates = slices.Clone(candidates)
		slices.SortStableFunc(candidates, predCmp)
	}
	for _, c := range candidates {
		if c.Procs > free {
			continue
		}
		if now+c.Prediction <= shadow || c.Procs <= extra {
			return c
		}
	}
	return nil
}

// ReferenceConservative is the from-scratch conservative backfilling
// specification: every Pick rebuilds the availability profile from the
// machine's running jobs and recomputes every queued job's reservation
// in arrival order.
type ReferenceConservative struct{ noHooks }

// Name implements Policy.
func (ReferenceConservative) Name() string { return "Conservative" }

// Pick implements Policy.
func (ReferenceConservative) Pick(now int64, m *platform.Machine, queue []*job.Job) *job.Job {
	if len(queue) == 0 {
		return nil
	}
	profile := platform.ProfileFromMachine(m, now)
	for _, c := range queue {
		duration := c.Prediction
		if duration < 1 {
			duration = 1
		}
		start := profile.FindStart(now, duration, c.Procs)
		if start == now {
			return c
		}
		if start < platform.InfiniteTime {
			profile.Reserve(start, start+duration, c.Procs)
		}
	}
	return nil
}
