package platform

import (
	"cmp"
	"slices"

	"repro/internal/job"
)

// Views of a Machine and a Profile that only this package's tests read.

// Running returns the running jobs in deterministic (ID) order.
func (m *Machine) Running() []*job.Job {
	jobs := make([]*job.Job, 0, len(m.order))
	for _, j := range m.jobs {
		if j != nil {
			jobs = append(jobs, j)
		}
	}
	slices.SortFunc(jobs, func(a, b *job.Job) int { return cmp.Compare(a.ID, b.ID) })
	return jobs
}

// NewProfile creates a profile with all processors free from start on.
func NewProfile(start, totalProcs int64) *Profile {
	p := &Profile{}
	p.Reset(start, totalProcs)
	return p
}

// Total returns the profile's capacity.
func (p *Profile) Total() int64 { return p.total }

// AvailableAt returns the free processors at instant t.
func (p *Profile) AvailableAt(t int64) int64 {
	return p.available[p.segmentAt(t)]
}

// SegmentCount returns the number of live segments.
func (p *Profile) SegmentCount() int { return len(p.times) }

// Segments returns a copy of the profile breakpoints.
func (p *Profile) Segments() (times []int64, available []int64) {
	times = append(times, p.times...)
	available = append(available, p.available...)
	return times, available
}
