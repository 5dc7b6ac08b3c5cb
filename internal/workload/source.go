package workload

import (
	"cmp"
	"fmt"
	"io"
	"slices"

	"repro/internal/swf"
	"repro/internal/trace"
)

// Source is a lazily pulled stream of job submissions, the bounded-memory
// counterpart of trace.Workload. NextJob returns records in nondecreasing
// SubmitTime order and io.EOF after the last one; any other error is
// fatal to the consuming simulation. Implementations exist for in-memory
// slices (SliceSource), SWF files read incrementally (ScanSource, usually
// wrapped in CleanSource/StatusSource), and the streaming synthetic
// generators (GenSource, stream.go; MultiSource, clients.go). Every
// implementation documents its memory bound — the property that makes
// million-job runs affordable.
type Source interface {
	NextJob() (swf.Job, error)
}

// SliceSource streams an in-memory job slice. It is how a preloaded
// trace.Workload is fed to the streaming engine — memory is O(len(jobs)),
// already spent by the caller, but the engine still avoids retaining
// per-job runtime state.
type SliceSource struct {
	jobs []swf.Job
	next int
}

// NewSliceSource returns a Source over jobs (not copied; callers must
// not mutate it while streaming).
func NewSliceSource(jobs []swf.Job) *SliceSource {
	return &SliceSource{jobs: jobs}
}

// FromWorkload streams a preloaded workload's jobs.
func FromWorkload(w *trace.Workload) *SliceSource {
	return NewSliceSource(w.Jobs)
}

// NextJob implements Source.
func (s *SliceSource) NextJob() (swf.Job, error) {
	if s.next >= len(s.jobs) {
		return swf.Job{}, io.EOF
	}
	j := s.jobs[s.next]
	s.next++
	return j, nil
}

// ScanSource adapts an swf.Scanner to the Source interface. The raw
// records are passed through untouched: archive logs should normally be
// wrapped in StatusSource and/or CleanSource before simulation, exactly
// as the preloading path applies swf.ApplyStatus and swf.Clean. Memory
// is O(1) beyond the scanner's line buffer.
type ScanSource struct {
	sc *swf.Scanner
}

// NewScanSource wraps a streaming SWF reader.
func NewScanSource(sc *swf.Scanner) *ScanSource { return &ScanSource{sc: sc} }

// NextJob implements Source.
func (s *ScanSource) NextJob() (swf.Job, error) { return s.sc.Next() }

// CleanSource applies swf.Clean's per-job rules on the fly (shared via
// swf.CleanJob so the paths can never drift): jobs with non-positive
// runtime, processor count or submit time are dropped, jobs wider than
// the machine are dropped, runtimes are capped at the requested time
// and missing requested times default to the runtime. swf.Clean also
// sorts; a stream cannot, but the only silent case — several jobs
// sharing one submit instant, written out of job-number order — is
// reproduced exactly by buffering each instant's run of jobs and
// emitting it in Clean's (SubmitTime, JobNumber) order. Memory is
// bounded by the busiest single submit instant. A genuinely unsorted
// log still fails loudly in the engine's order check and must take the
// preloading path.
type CleanSource struct {
	src      Source
	maxProcs int64
	instant  []swf.Job // cleaned jobs sharing the current submit instant
	next     int
	// pending is the first cleaned job of the following instant, held
	// while hasPending.
	pending    swf.Job
	hasPending bool
	done       bool
}

// NewCleanSource wraps src with the per-job cleaning rules for a machine
// of maxProcs processors (<= 0 skips the capacity check, as in swf.Clean).
func NewCleanSource(src Source, maxProcs int64) *CleanSource {
	return &CleanSource{src: src, maxProcs: maxProcs}
}

// NextJob implements Source.
func (c *CleanSource) NextJob() (swf.Job, error) {
	if c.next >= len(c.instant) {
		if err := c.fill(); err != nil {
			return swf.Job{}, err
		}
	}
	j := c.instant[c.next]
	c.next++
	return j, nil
}

// fill buffers the next submit instant's cleaned jobs, sorted the way
// swf.Clean sorts ties.
func (c *CleanSource) fill() error {
	c.instant = c.instant[:0]
	c.next = 0
	if c.hasPending {
		c.instant = append(c.instant, c.pending)
		c.hasPending = false
	}
	for !c.done {
		raw, err := c.src.NextJob()
		if err == io.EOF {
			c.done = true
			break
		}
		if err != nil {
			return err
		}
		keep, j := swf.CleanJob(&raw, c.maxProcs)
		if !keep {
			continue
		}
		if len(c.instant) > 0 && j.SubmitTime != c.instant[0].SubmitTime {
			c.pending, c.hasPending = j, true
			break
		}
		c.instant = append(c.instant, j)
	}
	if len(c.instant) == 0 {
		return io.EOF
	}
	slices.SortStableFunc(c.instant, func(a, b swf.Job) int {
		return cmp.Compare(a.JobNumber, b.JobNumber)
	})
	return nil
}

// StatusSource applies an swf.StatusMode on the fly. Keep, skip and
// truncate are per-job decisions and stream exactly as swf.ApplyStatus
// in O(1) memory; replay is rejected because deriving the cancellation
// script needs the whole log (use the preloading path for replay).
type StatusSource struct {
	src  Source
	mode swf.StatusMode
}

// NewStatusSource wraps src with the status policy.
func NewStatusSource(src Source, mode swf.StatusMode) (*StatusSource, error) {
	if mode == swf.StatusReplay {
		return nil, fmt.Errorf("workload: status mode replay needs the whole log (use the preloading path)")
	}
	return &StatusSource{src: src, mode: mode}, nil
}

// NextJob implements Source.
func (s *StatusSource) NextJob() (swf.Job, error) {
	for {
		j, err := s.src.NextJob()
		if err != nil {
			return swf.Job{}, err
		}
		if keep, out := swf.ApplyStatusJob(&j, s.mode); keep {
			return out, nil
		}
	}
}

// prependSource yields buffered records before draining the tail.
type prependSource struct {
	head []swf.Job
	next int
	tail Source
}

// Prepend returns a Source yielding the given records first, then
// everything from src. It is how a consumer that had to peek (e.g. to
// read an SWF header before choosing a machine size) puts the peeked
// records back. Memory is O(len(head)).
func Prepend(head []swf.Job, src Source) Source {
	return &prependSource{head: head, tail: src}
}

// NextJob implements Source.
func (p *prependSource) NextJob() (swf.Job, error) {
	if p.next < len(p.head) {
		j := p.head[p.next]
		p.next++
		return j, nil
	}
	return p.tail.NextJob()
}

// Collect drains a source into a slice — the bridge back to the
// preloading world, used by tests and by differential harnesses that
// need the same stream twice.
func Collect(src Source) ([]swf.Job, error) {
	var jobs []swf.Job
	for {
		j, err := src.NextJob()
		if err == io.EOF {
			return jobs, nil
		}
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, j)
	}
}
