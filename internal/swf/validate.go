package swf

import (
	"fmt"
	"sort"
)

// ValidationIssue describes one problem found in a trace.
type ValidationIssue struct {
	JobNumber int64
	Message   string
}

func (v ValidationIssue) String() string {
	return fmt.Sprintf("job %d: %s", v.JobNumber, v.Message)
}

// Validate checks the structural invariants a scheduling simulation
// relies on and returns every violation found. maxProcs <= 0 means "use
// the header's machine size"; if that is also absent, per-job capacity
// checks are skipped.
func Validate(tr *Trace, maxProcs int64) []ValidationIssue {
	if maxProcs <= 0 {
		maxProcs = tr.Header.Procs()
	}
	var issues []ValidationIssue
	add := func(j *Job, format string, args ...interface{}) {
		issues = append(issues, ValidationIssue{JobNumber: j.JobNumber, Message: fmt.Sprintf(format, args...)})
	}
	prevSubmit := int64(-1)
	for i := range tr.Jobs {
		j := &tr.Jobs[i]
		if j.SubmitTime < 0 {
			add(j, "negative submit time %d", j.SubmitTime)
		}
		if j.SubmitTime < prevSubmit {
			add(j, "submit time %d before previous job's %d (trace not sorted)", j.SubmitTime, prevSubmit)
		}
		prevSubmit = j.SubmitTime
		if j.RunTime < 0 {
			add(j, "negative run time %d", j.RunTime)
		}
		if j.Procs() <= 0 {
			add(j, "no processor requirement (requested %d, allocated %d)", j.RequestedProcs, j.AllocatedProcs)
		}
		if maxProcs > 0 && j.Procs() > maxProcs {
			add(j, "requires %d processors but machine has %d", j.Procs(), maxProcs)
		}
		if j.RequestedTime > 0 && j.RunTime > j.RequestedTime {
			add(j, "run time %d exceeds requested time %d", j.RunTime, j.RequestedTime)
		}
	}
	return issues
}

// CleanJob applies Clean's per-job rules to a single record in place:
// it reports whether a simulation can use the job, repairing *j when it
// can. It is the per-job core of Clean, shared with the streaming job
// sources so the two paths can never drift. maxProcs <= 0 skips the
// capacity check.
func CleanJob(j *Job, maxProcs int64) (keep bool) {
	if j.RunTime <= 0 || j.Procs() <= 0 || j.SubmitTime < 0 {
		return false
	}
	if maxProcs > 0 && j.Procs() > maxProcs {
		return false
	}
	if j.RequestedTime > 0 && j.RunTime > j.RequestedTime {
		j.RunTime = j.RequestedTime
	}
	if j.RequestedTime <= 0 {
		j.RequestedTime = j.RunTime
	}
	return true
}

// Clean returns a copy of the trace with jobs a simulation cannot use
// removed or repaired: jobs with non-positive runtime or processor count
// are dropped, runtimes are capped at the requested time (real systems
// kill jobs at the estimate), jobs wider than the machine are dropped,
// and jobs are sorted by submit time with stable job-number tie-breaking.
func Clean(tr *Trace, maxProcs int64) *Trace {
	if maxProcs <= 0 {
		maxProcs = tr.Header.Procs()
	}
	out := &Trace{Header: tr.Header}
	for i := range tr.Jobs {
		out.Jobs = append(out.Jobs, tr.Jobs[i])
		if !CleanJob(&out.Jobs[len(out.Jobs)-1], maxProcs) {
			out.Jobs = out.Jobs[:len(out.Jobs)-1]
		}
	}
	sort.SliceStable(out.Jobs, func(a, b int) bool {
		if out.Jobs[a].SubmitTime != out.Jobs[b].SubmitTime {
			return out.Jobs[a].SubmitTime < out.Jobs[b].SubmitTime
		}
		return out.Jobs[a].JobNumber < out.Jobs[b].JobNumber
	})
	return out
}
