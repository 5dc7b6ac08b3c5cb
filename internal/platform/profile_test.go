package platform

import "testing"

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
