package platform

import "testing"

func TestProfileRelease(t *testing.T) {
	p := NewProfile(0, 10)
	p.Reserve(10, 100, 6)
	// The job completes at t=40, 60 seconds before its predicted end:
	// releasing the tail compresses the timeline without a rebuild.
	p.Release(40, 100, 6)
	if p.AvailableAt(10) != 4 || p.AvailableAt(39) != 4 {
		t.Fatal("live part of the reservation lost")
	}
	if p.AvailableAt(40) != 10 || p.AvailableAt(99) != 10 || p.AvailableAt(100) != 10 {
		t.Fatal("released tail not free")
	}
}

func TestProfileReleaseExceedingCapacityPanics(t *testing.T) {
	p := NewProfile(0, 10)
	p.Reserve(0, 50, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when releasing beyond capacity")
		}
	}()
	p.Release(60, 80, 1) // nothing reserved there
}

func TestProfileReleaseCoalesces(t *testing.T) {
	p := NewProfile(0, 10)
	p.Reserve(10, 20, 4)
	p.Reserve(30, 40, 4)
	p.Release(10, 20, 4)
	p.Release(30, 40, 4)
	if p.SegmentCount() != 1 {
		times, avail := p.Segments()
		t.Fatalf("fully released profile should collapse to one segment: %v %v", times, avail)
	}
	if p.AvailableAt(15) != 10 || p.AvailableAt(35) != 10 {
		t.Fatal("released profile not fully free")
	}
}

func TestProfileAdvance(t *testing.T) {
	p := NewProfile(0, 10)
	p.Reserve(0, 50, 4)
	p.Reserve(100, 200, 6)
	p.Advance(120)
	if p.Start() != 120 {
		t.Fatalf("origin = %d, want 120", p.Start())
	}
	if p.AvailableAt(120) != 4 || p.AvailableAt(199) != 4 || p.AvailableAt(200) != 10 {
		t.Fatal("advance changed live availability")
	}
	// Dead history is compacted away: only [120,200) and [200,inf) remain.
	if p.SegmentCount() != 2 {
		times, avail := p.Segments()
		t.Fatalf("advance should drop dead segments: %v %v", times, avail)
	}
	// Advancing backwards (or to the origin) is a no-op.
	p.Advance(100)
	if p.Start() != 120 {
		t.Fatal("advance moved the origin backwards")
	}
}

func TestProfileAdvancePastEverything(t *testing.T) {
	p := NewProfile(0, 10)
	p.Reserve(0, 50, 4)
	p.Advance(1000)
	if p.Start() != 1000 || p.SegmentCount() != 1 || p.AvailableAt(1000) != 10 {
		t.Fatal("advance past all reservations should leave one fully-free segment")
	}
}

func TestProfileCopyFromAndReset(t *testing.T) {
	src := NewProfile(0, 10)
	src.Reserve(10, 100, 6)
	dst := NewProfile(0, 1)
	dst.CopyFrom(src)
	if dst.Total() != 10 || dst.AvailableAt(50) != 4 || dst.AvailableAt(100) != 10 {
		t.Fatal("copy does not match source")
	}
	// Mutating the copy must not touch the source (scratch semantics).
	dst.Reserve(10, 100, 4)
	if src.AvailableAt(50) != 4 {
		t.Fatal("mutating the copy leaked into the source")
	}
	dst.Reset(5, 8)
	if dst.Total() != 8 || dst.Start() != 5 || dst.AvailableAt(5) != 8 || dst.SegmentCount() != 1 {
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

// TestProfileIncrementalMatchesRebuild drives a random reserve/release/
// advance sequence and checks the incremental profile agrees with a
// freshly built one at every step.
func TestProfileIncrementalMatchesRebuild(t *testing.T) {
	type span struct{ from, to, procs int64 }
	p := NewProfile(0, 16)
	var live []span
	seed := int64(987654)
	next := func(n int64) int64 {
		seed = (seed*6364136223846793005 + 1442695040888963407) & 0x7fffffff
		return seed % n
	}
	var now int64
	for step := 0; step < 300; step++ {
		switch next(3) {
		case 0: // reserve a feasible span
			procs := 1 + next(8)
			dur := 1 + next(500)
			start := p.FindStart(now+next(200), dur, procs)
			if start < InfiniteTime {
				p.Reserve(start, start+dur, procs)
				live = append(live, span{start, start + dur, procs})
			}
		case 1: // release the tail of a live span
			if len(live) > 0 {
				i := next(int64(len(live)))
				s := live[i]
				if cut := s.from + (s.to-s.from)/2; cut < s.to && cut >= now {
					p.Release(cut, s.to, s.procs)
					live[i].to = cut
				}
			}
		case 2: // advance the clock
			now += next(100)
			p.Advance(now)
			for i := range live {
				if live[i].from < now {
					live[i].from = now
				}
			}
		}
		// Rebuild from the live spans and compare at probe points.
		fresh := NewProfile(now, 16)
		for _, s := range live {
			if s.to > now {
				from := s.from
				if from < now {
					from = now
				}
				fresh.Reserve(from, s.to, s.procs)
			}
		}
		for probe := int64(0); probe < 10; probe++ {
			at := now + next(1000)
			if got, want := p.AvailableAt(at), fresh.AvailableAt(at); got != want {
				t.Fatalf("step %d: availability at %d = %d, rebuild says %d", step, at, got, want)
			}
		}
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
