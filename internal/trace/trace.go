// Package trace provides the in-memory workload model shared by the
// simulator, the predictors and the experiment harness. It wraps an SWF
// trace with the machine size and derived statistics (utilization,
// per-user activity, estimate accuracy) that the paper reports when
// describing its testbed (Table 4).
package trace

import (
	"fmt"
	"sort"

	"repro/internal/swf"
)

// Workload is a scheduling problem instance: a machine of MaxProcs
// identical processors and a submit-time-ordered list of jobs.
type Workload struct {
	// Name identifies the workload (e.g. "Curie").
	Name string
	// MaxProcs is the machine size m.
	MaxProcs int64
	// Jobs is ordered by submit time.
	Jobs []swf.Job
	// Clients names the traffic sources of a multi-client workload in
	// client-index order (the SWF Partition field carries 1+index). Nil
	// for single-population workloads and archive logs.
	Clients []string
}

// FromSWF builds a Workload from a parsed trace, cleaning it first.
// maxProcs overrides the header machine size when positive.
func FromSWF(name string, tr *swf.Trace, maxProcs int64) (*Workload, error) {
	if maxProcs <= 0 {
		maxProcs = tr.Header.Procs()
	}
	if maxProcs <= 0 {
		return nil, fmt.Errorf("trace: %s: machine size unknown (no MaxProcs/MaxNodes header)", name)
	}
	clean := swf.Clean(tr, maxProcs)
	if len(clean.Jobs) == 0 {
		return nil, fmt.Errorf("trace: %s: no usable jobs after cleaning", name)
	}
	return &Workload{Name: name, MaxProcs: maxProcs, Jobs: clean.Jobs}, nil
}

// Duration returns the span from the first submission to the last
// completion assuming zero waiting (a lower bound on the log duration).
func (w *Workload) Duration() int64 {
	var end int64
	for i := range w.Jobs {
		j := &w.Jobs[i]
		if t := j.SubmitTime + j.RunTime; t > end {
			end = t
		}
	}
	if len(w.Jobs) == 0 {
		return 0
	}
	return end - w.Jobs[0].SubmitTime
}

// TotalWork returns the sum of processor-seconds consumed by all jobs.
func (w *Workload) TotalWork() int64 {
	var work int64
	for i := range w.Jobs {
		j := &w.Jobs[i]
		work += j.RunTime * j.Procs()
	}
	return work
}

// OfferedLoad returns total work divided by machine capacity over the
// trace duration — the utilization the machine would need to clear the
// workload with no idling. Values near (or above) 1 indicate a saturated
// system, the regime the paper selects its logs from.
func (w *Workload) OfferedLoad() float64 {
	d := w.Duration()
	if d <= 0 || w.MaxProcs <= 0 {
		return 0
	}
	return float64(w.TotalWork()) / (float64(d) * float64(w.MaxProcs))
}

// Users returns the distinct user IDs in the workload, sorted.
func (w *Workload) Users() []int64 {
	set := make(map[int64]bool)
	for i := range w.Jobs {
		set[w.Jobs[i].UserID] = true
	}
	users := make([]int64, 0, len(set))
	for u := range set {
		users = append(users, u)
	}
	sort.Slice(users, func(a, b int) bool { return users[a] < users[b] })
	return users
}

// Stats summarizes a workload for reporting.
type Stats struct {
	Name            string
	MaxProcs        int64
	Jobs            int
	Users           int
	DurationSec     int64
	OfferedLoad     float64
	MeanRunTime     float64
	MeanRequested   float64
	MeanOverestim   float64 // mean of requested/actual ratio
	MedianRunTime   int64
	MaxProcsPerJob  int64
	MeanProcsPerJob float64
}

// ComputeStats derives the summary statistics of the workload.
func ComputeStats(w *Workload) Stats {
	s := Stats{Name: w.Name, MaxProcs: w.MaxProcs, Jobs: len(w.Jobs), Users: len(w.Users())}
	s.DurationSec = w.Duration()
	s.OfferedLoad = w.OfferedLoad()
	if len(w.Jobs) == 0 {
		return s
	}
	runtimes := make([]int64, 0, len(w.Jobs))
	var sumRun, sumReq, sumRatio, sumProcs float64
	for i := range w.Jobs {
		j := &w.Jobs[i]
		runtimes = append(runtimes, j.RunTime)
		sumRun += float64(j.RunTime)
		sumReq += float64(j.Request())
		if j.RunTime > 0 {
			sumRatio += float64(j.Request()) / float64(j.RunTime)
		}
		sumProcs += float64(j.Procs())
		if j.Procs() > s.MaxProcsPerJob {
			s.MaxProcsPerJob = j.Procs()
		}
	}
	n := float64(len(w.Jobs))
	s.MeanRunTime = sumRun / n
	s.MeanRequested = sumReq / n
	s.MeanOverestim = sumRatio / n
	s.MeanProcsPerJob = sumProcs / n
	sort.Slice(runtimes, func(a, b int) bool { return runtimes[a] < runtimes[b] })
	s.MedianRunTime = runtimes[len(runtimes)/2]
	return s
}

// Slice returns a copy of the workload restricted to the first n jobs
// (or all jobs if n is zero or exceeds the length). Useful for scaled-down
// benchmark runs.
func (w *Workload) Slice(n int) *Workload {
	if n <= 0 || n >= len(w.Jobs) {
		n = len(w.Jobs)
	}
	jobs := make([]swf.Job, n)
	copy(jobs, w.Jobs[:n])
	return &Workload{Name: w.Name, MaxProcs: w.MaxProcs, Jobs: jobs}
}

// Validate reports invariant violations in the workload.
func (w *Workload) Validate() []swf.ValidationIssue {
	tr := &swf.Trace{Header: swf.Header{MaxProcs: w.MaxProcs}, Jobs: w.Jobs}
	return swf.Validate(tr, w.MaxProcs)
}
