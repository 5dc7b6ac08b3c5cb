package sim

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/job"
)

// ValidateResult checks the physical invariants of a realized schedule:
// every job started at or after its submission, ran for exactly its
// actual running time, and the in-service capacity was never exceeded —
// against the realized capacity step function when the simulation ran a
// disruption scenario, or the constant machine size otherwise. Jobs a
// scenario canceled before they ever ran are exempt from the
// completeness checks; killed jobs are validated like completions (their
// Runtime is the time actually executed).
//
// A federated result is validated cluster by cluster: each cluster's
// routed jobs are checked against that cluster's size and capacity
// timeline, with violations prefixed by the cluster name. Placement
// itself is part of the check — a job routed to a cluster smaller than
// its width shows up as a capacity violation there.
//
// It returns every violation found (empty means the schedule is valid).
func ValidateResult(res *Result) []error {
	if len(res.Clusters) == 0 {
		return validateSchedule(res.Jobs, res.MaxProcs, res.CapacitySteps, "")
	}
	var errs []error
	perCluster := make([][]*job.Job, len(res.Clusters))
	for _, j := range res.Jobs {
		if j.Cluster < 0 || j.Cluster >= len(res.Clusters) {
			errs = append(errs, fmt.Errorf("job %d routed to nonexistent cluster %d", j.ID, j.Cluster))
			continue
		}
		perCluster[j.Cluster] = append(perCluster[j.Cluster], j)
	}
	for ci := range res.Clusters {
		cr := &res.Clusters[ci]
		errs = append(errs, validateSchedule(perCluster[ci], cr.MaxProcs, cr.CapacitySteps, cr.Name+": ")...)
	}
	return errs
}

// validateSchedule checks one machine's jobs against its nominal size
// and realized capacity timeline, prefixing every violation.
func validateSchedule(jobs []*job.Job, maxProcs int64, steps []CapacityStep, prefix string) []error {
	var errs []error
	fail := func(format string, args ...interface{}) {
		errs = append(errs, fmt.Errorf(prefix+format, args...))
	}
	type delta struct {
		at    int64
		procs int64
		isEnd bool
		id    int64
	}
	deltas := make([]delta, 0, 2*len(jobs))
	for _, j := range jobs {
		if j.Canceled && !j.Started {
			continue // removed before it ever ran: nothing physical to check
		}
		if !j.Started || !j.Finished {
			fail("job %d incomplete (started=%v finished=%v)", j.ID, j.Started, j.Finished)
			continue
		}
		if j.Start < j.Submit {
			fail("job %d started at %d before submission %d", j.ID, j.Start, j.Submit)
		}
		if j.End-j.Start != j.Runtime {
			fail("job %d ran %d, actual runtime %d", j.ID, j.End-j.Start, j.Runtime)
		}
		if j.Prediction < 1 || j.Prediction > j.Request {
			fail("job %d final prediction %d outside [1,%d]", j.ID, j.Prediction, j.Request)
		}
		deltas = append(deltas,
			delta{at: j.Start, procs: j.Procs, id: j.ID},
			delta{at: j.End, procs: -j.Procs, isEnd: true, id: j.ID})
	}
	slices.SortFunc(deltas, func(a, b delta) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		// Releases before allocations at the same instant.
		if a.isEnd != b.isEnd {
			if a.isEnd {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.id, b.id)
	})
	// Walk the usage deltas against the realized capacity timeline.
	// Capacity changes at an instant apply after its releases and before
	// its allocations: a pending drain shrinks capacity by absorbing a
	// release, so at the instant several jobs finish together the
	// recorded (collapsed, final) capacity only holds once every release
	// at that instant has been counted — checking the releases themselves
	// against the pre-instant capacity. Drains only ever claim idle
	// processors, so usage must fit the new capacity by the time anything
	// starts at that instant.
	capacity := maxProcs
	step := 0
	var used int64
	for _, d := range deltas {
		for step < len(steps) {
			s := steps[step]
			if s.At > d.at || (s.At == d.at && d.isEnd) {
				break
			}
			capacity = s.Capacity
			step++
		}
		used += d.procs
		if used > capacity {
			fail("capacity exceeded at t=%d: %d > %d", d.at, used, capacity)
			break
		}
	}
	return errs
}
