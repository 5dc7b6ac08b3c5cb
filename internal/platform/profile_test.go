package platform

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

func TestProfileCopyFromAndReset(t *testing.T) {
	dst := NewProfile(0, 1)
	dst.Reserve(10, 100, 1)
	dst.Reset(5, 8)
	if times, _ := dst.Segments(); dst.Total() != 8 || times[0] != 5 || dst.AvailableAt(5) != 8 || dst.SegmentCount() != 1 {
		t.Fatal("reset profile wrong")
	}
}

func TestProfileReserveCoalescesAdjacentEqual(t *testing.T) {
	p := NewProfile(0, 10)
	p.Reserve(10, 20, 4)
	p.Reserve(20, 30, 4)
	// [10,20) and [20,30) hold the same availability: one breakpoint.
	if p.AvailableAt(15) != 6 || p.AvailableAt(25) != 6 || p.AvailableAt(30) != 10 {
		t.Fatal("availability wrong after adjacent reservations")
	}
	if p.SegmentCount() != 3 { // [0,10) [10,30) [30,inf)
		times, avail := p.Segments()
		t.Fatalf("adjacent equal segments not coalesced: %v %v", times, avail)
	}
}

// TestProfileFits: Fits answers "would FindStart return start" on the
// profile's segment edges, and agrees with FindStart on every case.
func TestProfileFits(t *testing.T) {
	p := NewProfile(0, 10)
	p.Reserve(100, 200, 6) // [0,100) 10, [100,200) 4, [200,inf) 10
	drained := NewProfile(0, 0)
	for _, tc := range []struct {
		name                   string
		p                      *Profile
		start, duration, procs int64
		want                   bool
	}{
		{"window ends on a breakpoint", p, 50, 50, 8, true},
		{"window crosses a breakpoint", p, 50, 51, 8, false},
		{"start mid-segment", p, 150, 10, 4, true},
		{"start mid-segment, too wide", p, 150, 10, 5, false},
		{"start on a breakpoint", p, 100, 100, 4, true},
		{"zero duration counts as one second", p, 100, 0, 8, false},
		{"negative duration counts as one second", p, 99, -5, 8, true},
		{"more than the total", p, 0, 1, 11, false},
		{"last segment never ends", p, 200, 1 << 40, 10, true},
		{"reaching the last segment", p, 150, 1 << 40, 4, true},
		{"zero capacity", drained, 0, 1, 1, false},
	} {
		if got := tc.p.Fits(tc.start, tc.duration, tc.procs); got != tc.want {
			t.Errorf("%s: Fits(%d, %d, %d) = %v, want %v", tc.name, tc.start, tc.duration, tc.procs, got, tc.want)
		}
		if found := tc.p.FindStart(tc.start, tc.duration, tc.procs) == tc.start; found != tc.want {
			t.Errorf("%s: FindStart disagrees (returns start: %v)", tc.name, found)
		}
	}
}

// denseProfile is the oracle for Profile: availability instant by
// instant over [origin, origin+len(free)), the profile's total at every
// later instant.
type denseProfile struct {
	origin, total int64
	free          []int64
}

func newDenseProfile(origin, total int64, horizon int) *denseProfile {
	d := &denseProfile{origin: origin, total: total, free: make([]int64, horizon)}
	for i := range d.free {
		d.free[i] = total
	}
	return d
}

func (d *denseProfile) at(t int64) int64 {
	if i := t - d.origin; i < int64(len(d.free)) {
		return d.free[i]
	}
	return d.total
}

func (d *denseProfile) fits(start, duration, procs int64) bool {
	for t := start; t < start+max(duration, 1); t++ {
		if d.at(t) < procs {
			return false
		}
	}
	return true
}

func (d *denseProfile) findStart(earliest, duration, procs int64) int64 {
	if procs > d.total {
		return InfiniteTime
	}
	start := max(earliest, d.origin)
	for !d.fits(start, duration, procs) {
		start++
	}
	return start
}

func (d *denseProfile) reserve(from, to, procs int64) {
	for t := from; t < to; t++ {
		d.free[t-d.origin] -= procs
	}
}

// segments returns the run-length encoding of the availability: what a
// coalesced profile must hold.
func (d *denseProfile) segments() (times, available []int64) {
	for i, a := range d.free {
		if i == 0 || a != d.free[i-1] {
			times = append(times, d.origin+int64(i))
			available = append(available, a)
		}
	}
	return times, available
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// TestProfileMatchesDenseOracle holds profiles of capacity 0 to 16 to a
// per-instant availability array under seeded random Place, Reserve,
// FindStart and Fits calls. Every answer must equal the array's, and
// after every step the segments must equal the array's run-length
// encoding, so a missed merge fails as surely as a wrong answer.
// Instants are drawn before, at and after the origin and on and around
// the current breakpoints, durations down to -2, and widths up to two
// above the total.
func TestProfileMatchesDenseOracle(t *testing.T) {
	const horizon = 512 // a step that reaches past it fails the test
	r := rand.New(rand.NewPCG(24, 0x5eed))
	for trial := 0; trial < 300; trial++ {
		origin, total := r.Int64N(20), r.Int64N(17)
		p := NewProfile(origin, total)
		d := newDenseProfile(origin, total, horizon)
		mustPanic(t, "Fits before the origin", func() { p.Fits(origin-1, 1, 0) })
		mustPanic(t, "Reserve before the origin", func() { p.Reserve(origin-1, origin+1, 0) })
		// instant draws before, at or after the origin, or on or next
		// to one of the current breakpoints.
		instant := func() int64 {
			switch r.IntN(4) {
			case 0:
				return origin - 1 - r.Int64N(4)
			case 1:
				return origin
			case 2:
				return origin + r.Int64N(120)
			}
			times, _ := d.segments()
			return times[r.IntN(len(times))] + r.Int64N(3) - 1
		}
		for step := 0; step < 30; step++ {
			duration, procs := r.Int64N(15)-2, r.Int64N(total+3)
			var op string
			switch r.IntN(4) {
			case 0:
				earliest := instant()
				op = fmt.Sprintf("Place(%d, %d, %d)", earliest, duration, procs)
				want := d.findStart(earliest, duration, procs)
				if got := p.Place(earliest, duration, procs); got != want {
					t.Fatalf("trial %d step %d: %s = %d, want %d", trial, step, op, got, want)
				}
				if want < InfiniteTime {
					d.reserve(want, want+max(duration, 1), procs)
				}
			case 1:
				from := max(instant(), origin)
				to := from + 1 + r.Int64N(30)
				room := total
				for at := from; at < to; at++ {
					room = min(room, d.at(at))
				}
				procs = r.Int64N(room + 1)
				op = fmt.Sprintf("Reserve(%d, %d, %d)", from, to, procs)
				p.Reserve(from, to, procs)
				d.reserve(from, to, procs)
			case 2:
				earliest := instant()
				op = fmt.Sprintf("FindStart(%d, %d, %d)", earliest, duration, procs)
				if got, want := p.FindStart(earliest, duration, procs), d.findStart(earliest, duration, procs); got != want {
					t.Fatalf("trial %d step %d: %s = %d, want %d", trial, step, op, got, want)
				}
			case 3:
				start := max(instant(), origin)
				op = fmt.Sprintf("Fits(%d, %d, %d)", start, duration, procs)
				if got, want := p.Fits(start, duration, procs), d.fits(start, duration, procs); got != want {
					t.Fatalf("trial %d step %d: %s = %v, want %v", trial, step, op, got, want)
				}
			}
			if d.free[horizon-1] != total {
				t.Fatalf("trial %d step %d: %s reached the oracle's horizon", trial, step, op)
			}
			gt, ga := p.Segments()
			wt, wa := d.segments()
			if !slices.Equal(gt, wt) || !slices.Equal(ga, wa) {
				t.Fatalf("trial %d step %d: after %s the profile holds %v %v, want %v %v", trial, step, op, gt, ga, wt, wa)
			}
		}
	}
}
