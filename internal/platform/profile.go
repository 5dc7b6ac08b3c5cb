package platform

import (
	"fmt"
	"sort"
)

// Profile is a piecewise-constant availability timeline: available[i]
// processors are free during [times[i], times[i+1]). The last segment
// extends to infinity. It supports the find-earliest-hole and reserve
// operations conservative backfilling needs. A scheduler refills one
// profile from the machine at each instant it plans
// (Machine.FillAvailability); Reset and Reserve reuse the backing arrays,
// so a reused profile reaches a steady state where planning allocates
// nothing.
type Profile struct {
	times     []int64
	available []int64
	total     int64
}

// ProfileFromMachine builds the availability profile implied by the
// machine's running jobs and their predicted completion times (overdue
// predictions release at ReleaseInstant), net of pending-drain
// absorption. See Machine.FillAvailability for the construction.
func ProfileFromMachine(m *Machine, now int64) *Profile {
	p := &Profile{}
	m.FillAvailability(p, now)
	return p
}

// Reset reinitializes the profile to fully-free from start, keeping the
// backing arrays. A zero capacity is legal — it models a machine fully
// drained for maintenance, on which nothing can be placed — but a
// negative one is a bug.
func (p *Profile) Reset(start, totalProcs int64) {
	if totalProcs < 0 {
		panic(fmt.Sprintf("platform: negative profile capacity %d", totalProcs))
	}
	p.times = append(p.times[:0], start)
	p.available = append(p.available[:0], totalProcs)
	p.total = totalProcs
}

// segmentAt returns the index of the segment containing t (t must be >=
// the profile start).
func (p *Profile) segmentAt(t int64) int {
	// The first segment with times[i] > t, minus one.
	i := sort.Search(len(p.times), func(i int) bool { return p.times[i] > t })
	if i == 0 {
		panic(fmt.Sprintf("platform: time %d precedes profile start %d", t, p.times[0]))
	}
	return i - 1
}

// split ensures a breakpoint exists exactly at t and returns its segment
// index.
func (p *Profile) split(t int64) int {
	i := p.segmentAt(t)
	if p.times[i] == t {
		return i
	}
	p.times = append(p.times, 0)
	p.available = append(p.available, 0)
	copy(p.times[i+2:], p.times[i+1:])
	copy(p.available[i+2:], p.available[i+1:])
	p.times[i+1] = t
	p.available[i+1] = p.available[i]
	return i + 1
}

// coalesce merges runs of equal-availability segments in the index range
// [lo, hi], keeping the profile minimal so scan costs do not grow with
// reservation churn. Indices are clamped to the valid range.
func (p *Profile) coalesce(lo, hi int) {
	if lo < 1 {
		lo = 1 // segment 0 is the origin and is never merged away
	}
	if hi >= len(p.times) {
		hi = len(p.times) - 1
	}
	if lo > hi {
		return
	}
	w := lo
	for r := lo; r <= hi; r++ {
		if p.available[r] == p.available[w-1] {
			continue // drop breakpoint r: same availability as its left neighbor
		}
		p.times[w] = p.times[r]
		p.available[w] = p.available[r]
		w++
	}
	if w <= hi {
		n := copy(p.times[w:], p.times[hi+1:])
		copy(p.available[w:], p.available[hi+1:])
		p.times = p.times[:w+n]
		p.available = p.available[:w+n]
	}
}

// FindStart returns the earliest instant >= earliest at which procs
// processors are continuously free for duration seconds.
func (p *Profile) FindStart(earliest, duration, procs int64) int64 {
	if procs > p.total {
		return InfiniteTime
	}
	if duration <= 0 {
		duration = 1
	}
	start := earliest
	if start < p.times[0] {
		start = p.times[0]
	}
	for i := p.segmentAt(start); ; {
		k := p.shortSegment(i, start+duration, procs)
		if k < 0 {
			return start
		}
		if k+1 == len(p.times) {
			// Last segment lacks capacity and lasts forever: only
			// possible if procs > total, excluded above.
			return InfiniteTime
		}
		// Restart after the short segment.
		i = k + 1
		start = p.times[i]
	}
}

// Fits reports whether procs processors are continuously free for
// duration seconds from start, i.e. whether FindStart(start, duration,
// procs) would return start, without searching past the first segment
// that lacks them. Like FindStart it treats duration <= 0 as 1; start
// must not precede the profile start.
func (p *Profile) Fits(start, duration, procs int64) bool {
	if procs > p.total {
		return false
	}
	if duration <= 0 {
		duration = 1
	}
	return p.shortSegment(p.segmentAt(start), start+duration, procs) < 0
}

// shortSegment returns the first segment from index i on that begins
// before end and has fewer than procs processors free, or -1 if none
// does: the window from segment i up to end fits exactly when it
// returns -1.
func (p *Profile) shortSegment(i int, end, procs int64) int {
	for k := i; k < len(p.times) && p.times[k] < end; k++ {
		if p.available[k] < procs {
			return k
		}
	}
	return -1
}

// Reserve subtracts procs processors during [from, to). It panics if the
// reservation would drive availability negative — callers must use
// FindStart first.
func (p *Profile) Reserve(from, to, procs int64) {
	if from >= to {
		panic(fmt.Sprintf("platform: empty reservation [%d,%d)", from, to))
	}
	i := p.split(from)
	j := p.split(to)
	for k := i; k < j; k++ {
		p.available[k] -= procs
		if p.available[k] < 0 {
			panic(fmt.Sprintf("platform: reservation [%d,%d)x%d overbooks segment %d", from, to, procs, k))
		}
	}
	p.coalesce(i, j)
}
