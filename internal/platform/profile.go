package platform

import (
	"fmt"
	"sort"
)

// Profile is a piecewise-constant availability timeline: available[i]
// processors are free during [times[i], times[i+1]). The last segment
// extends to infinity and always holds the profile's total, since every
// reservation ends at a finite instant. A profile is always coalesced:
// no two adjacent segments hold equal availability. Reset,
// FillAvailability and every reservation keep this true, so a walk's
// cost follows the distinct availability steps, not the reservation
// churn. It supports the find-earliest-hole and reserve operations
// conservative backfilling needs. A scheduler refills one profile from
// the machine at each instant it plans (Machine.FillAvailability); Reset
// and the reservations reuse the backing arrays, so a reused profile
// reaches a steady state where planning allocates nothing.
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
// the profile start). Conservative plans at the instant its profile was
// filled from, so an instant in the first segment is answered without a
// search.
func (p *Profile) segmentAt(t int64) int {
	if t >= p.times[0] && (len(p.times) == 1 || t < p.times[1]) {
		return 0
	}
	// The first segment with times[i] > t, minus one.
	i := sort.Search(len(p.times), func(i int) bool { return p.times[i] > t })
	if i == 0 {
		panic(fmt.Sprintf("platform: time %d precedes profile start %d", t, p.times[0]))
	}
	return i - 1
}

// FindStart returns the earliest instant >= earliest at which procs
// processors are continuously free for duration seconds, treating
// duration <= 0 as 1, or InfiniteTime when procs exceeds the total.
func (p *Profile) FindStart(earliest, duration, procs int64) int64 {
	start, _ := p.find(earliest, max(duration, 1), procs)
	return start
}

// Place reserves procs processors for duration seconds from the instant
// FindStart(earliest, duration, procs) returns, and returns that
// instant. It is FindStart and Reserve in one forward walk: the
// reservation starts from the segment where the search stopped. Like
// FindStart it treats duration <= 0 as 1; a job wider than the profile
// gets InfiniteTime and reserves nothing.
func (p *Profile) Place(earliest, duration, procs int64) int64 {
	duration = max(duration, 1)
	start, i := p.find(earliest, duration, procs)
	if start < InfiniteTime {
		p.reserve(i, start, start+duration, procs)
	}
	return start
}

// find is FindStart's walk for duration >= 1; it also returns the index
// of the segment holding the start. It crosses each segment once: it
// steps over segments lacking procs, checks the window only from a
// segment that has them, and restarts after the first short segment
// in the window. The last segment holds the total, so for procs <=
// total the step-over stops and the walk ends with a start.
func (p *Profile) find(earliest, duration, procs int64) (start int64, i int) {
	if procs > p.total {
		return InfiniteTime, -1
	}
	start = max(earliest, p.times[0])
	i = p.segmentAt(start)
	times, avail := p.times, p.available[:len(p.times)]
	for {
		if avail[i] < procs {
			for i++; avail[i] < procs; i++ {
			}
			start = times[i]
		}
		end := start + duration
		k := i + 1
		for k < len(times) && times[k] < end && avail[k] >= procs {
			k++
		}
		if k == len(times) || times[k] >= end {
			return start, i
		}
		// Segment k is short: restart after it.
		i = k + 1
		start = times[i]
	}
}

// Fits reports whether procs processors are continuously free for
// duration seconds from start, i.e. whether FindStart(start, duration,
// procs) would return start, without searching past the first segment
// that lacks them. Like FindStart it treats duration <= 0 as 1; start
// must not precede the profile start. No segment holds more than the
// total, so a job wider than the profile fails on the first segment.
func (p *Profile) Fits(start, duration, procs int64) bool {
	times, avail := p.times, p.available[:len(p.times)]
	end := start + max(duration, 1)
	for k := p.segmentAt(start); k < len(times) && times[k] < end; k++ {
		if avail[k] < procs {
			return false
		}
	}
	return true
}

// Reserve subtracts procs processors during [from, to). It panics if the
// reservation would drive availability negative — callers must use
// FindStart first, or plan with Place.
func (p *Profile) Reserve(from, to, procs int64) {
	if from >= to {
		panic(fmt.Sprintf("platform: empty reservation [%d,%d)", from, to))
	}
	p.reserve(p.segmentAt(from), from, to, procs)
}

// reserve is Reserve for the segment i that holds from: it splits
// segment i at from, walks forward subtracting procs up to to, and
// splits there. Subtracting one amount from a run of segments keeps
// the run's inner neighbours distinct, so in a coalesced profile only
// the run's two edges can merge.
func (p *Profile) reserve(i int, from, to, procs int64) {
	if p.times[i] < from {
		i++
		p.insert(i, from, p.available[i-1])
	}
	times, avail := p.times, p.available[:len(p.times)]
	k := i
	for ; k < len(times) && times[k] < to; k++ {
		avail[k] -= procs
		if avail[k] < 0 {
			panic(fmt.Sprintf("platform: reservation [%d,%d)x%d overbooks segment %d", from, to, procs, k))
		}
	}
	if k == len(times) || times[k] > to {
		p.insert(k, to, avail[k-1]+procs)
	}
	p.merge(k)
	p.merge(i)
}

// insert adds a breakpoint at t with avail processors free as segment i.
func (p *Profile) insert(i int, t, avail int64) {
	p.times = append(p.times, 0)
	p.available = append(p.available, 0)
	copy(p.times[i+1:], p.times[i:])
	copy(p.available[i+1:], p.available[i:])
	p.times[i] = t
	p.available[i] = avail
}

// merge drops breakpoint i when segment i holds what its left neighbour
// holds. Segment 0 is the origin and is never merged away.
func (p *Profile) merge(i int) {
	if i > 0 && p.available[i-1] == p.available[i] {
		p.times = append(p.times[:i], p.times[i+1:]...)
		p.available = append(p.available[:i], p.available[i+1:]...)
	}
}
