package swf

import "fmt"

// Completion-status values of SWF field 11.
const (
	// StatusFailed marks a job that failed (possibly re-submitted later).
	StatusFailed int64 = 0
	// StatusCompleted marks a normally completed job.
	StatusCompleted int64 = 1
	// StatusCancelled marks a job cancelled by the user or the system,
	// whether before or after it started running.
	StatusCancelled int64 = 5
)

// StatusMode selects how the completion status of cancelled/failed jobs
// is honored when a real log is loaded for simulation.
type StatusMode int

const (
	// StatusKeep ignores the status field: every structurally usable job
	// is replayed with its logged runtime (the historical behavior).
	StatusKeep StatusMode = iota
	// StatusSkip drops cancelled and failed jobs entirely — the
	// counterfactual workload where the kills never happened.
	StatusSkip
	// StatusTruncate keeps cancelled/failed jobs that actually occupied
	// the machine (their logged runtime is the truncated run) and drops
	// the ones that never ran.
	StatusTruncate
	// StatusReplay keeps every cancelled job: jobs killed before ever
	// running get their requested time as the hypothetical runtime, so
	// a scenario.Script derived from the same log (see
	// scenario.CancellationsFromSWF) can remove them at the instant the
	// real system did.
	StatusReplay
)

// String names the mode (the cmd/simsched flag values).
func (m StatusMode) String() string {
	switch m {
	case StatusKeep:
		return "keep"
	case StatusSkip:
		return "skip"
	case StatusTruncate:
		return "truncate"
	case StatusReplay:
		return "replay"
	}
	return "unknown"
}

// ParseStatusMode parses a cmd-line status-mode name.
func ParseStatusMode(s string) (StatusMode, error) {
	for _, m := range []StatusMode{StatusKeep, StatusSkip, StatusTruncate, StatusReplay} {
		if m.String() == s {
			return m, nil
		}
	}
	return StatusKeep, fmt.Errorf("swf: unknown status mode %q (keep|skip|truncate|replay)", s)
}

// interrupted reports whether the job's status marks it cancelled or
// failed.
func interrupted(j *Job) bool {
	return j.Status == StatusCancelled || j.Status == StatusFailed
}

// ApplyStatusJob applies the completion-status policy to a single
// record in place: it reports whether the job survives, repairing *j
// when it does. It is the per-job core of ApplyStatus, shared with the
// streaming job sources so the two paths can never drift.
func ApplyStatusJob(j *Job, mode StatusMode) (keep bool) {
	switch mode {
	case StatusSkip:
		return !interrupted(j)
	case StatusTruncate:
		return !interrupted(j) || j.RunTime > 0
	case StatusReplay:
		if j.Status == StatusCancelled && j.RunTime <= 0 {
			if j.Request() <= 0 {
				return false // no usable runtime even hypothetically
			}
			j.RunTime = j.Request()
		}
	}
	return true
}

// ApplyStatus returns a copy of the trace with the completion-status
// policy applied; the input is not modified. Apply it before Clean —
// Clean drops zero-runtime jobs, which is exactly the population
// StatusReplay repairs.
func ApplyStatus(tr *Trace, mode StatusMode) *Trace {
	out := &Trace{Header: tr.Header}
	if mode == StatusKeep {
		out.Jobs = append([]Job(nil), tr.Jobs...)
		return out
	}
	for i := range tr.Jobs {
		out.Jobs = append(out.Jobs, tr.Jobs[i])
		if !ApplyStatusJob(&out.Jobs[len(out.Jobs)-1], mode) {
			out.Jobs = out.Jobs[:len(out.Jobs)-1]
		}
	}
	return out
}
