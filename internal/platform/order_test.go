package platform

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/job"
)

// The machine answers availability queries from its release order, an
// index kept sorted by Start, Finish and Correct. The policies' reference
// formulations call the same machine code, so the incremental-versus-
// reference property tests cannot see an index bug; the oracle below
// recomputes every answer from scratch out of Running() and the jobs'
// own fields.

type oracleRelease struct{ at, procs, id int64 }

// oracleReleases collects the running jobs' releases at their
// ReleaseInstant, sorted by (instant, ID).
func oracleReleases(m *Machine, now int64) []oracleRelease {
	var rs []oracleRelease
	for _, j := range m.Running() {
		rs = append(rs, oracleRelease{at: ReleaseInstant(j, now), procs: j.Procs, id: j.ID})
	}
	slices.SortFunc(rs, func(a, b oracleRelease) int {
		if a.at != b.at {
			return cmp.Compare(a.at, b.at)
		}
		return cmp.Compare(a.id, b.id)
	})
	return rs
}

// oracleReservation scans the sorted releases, letting the pending drain
// absorb each release in turn and testing coverage after each instant.
func oracleReservation(m *Machine, now, procs int64) (shadow, extra int64) {
	if procs <= m.Free() {
		return now, m.Free() - procs
	}
	if procs > m.EventualCapacity() {
		return InfiniteTime, 0
	}
	avail, pending := m.Free(), m.PendingDrain()
	rs := oracleReleases(m, now)
	for k := 0; k < len(rs); {
		t := rs[k].at
		for ; k < len(rs) && rs[k].at == t; k++ {
			take := min(pending, rs[k].procs)
			pending -= take
			avail += rs[k].procs - take
		}
		if avail >= procs {
			return t, avail - procs
		}
	}
	return InfiniteTime, 0
}

// oracleAvailability reserves each release, net of drain absorption, as
// its own step.
func oracleAvailability(m *Machine, now int64) *Profile {
	p := NewProfile(now, m.EventualCapacity())
	pending := m.PendingDrain()
	for _, r := range oracleReleases(m, now) {
		take := min(pending, r.procs)
		pending -= take
		if gain := r.procs - take; gain > 0 {
			p.Reserve(now, r.at, gain)
		}
	}
	return p
}

// checkAgainstOracle compares every availability answer the machine gives
// at now with the oracle's.
func checkAgainstOracle(t *testing.T, m *Machine, running []*job.Job, now int64, p *Profile, step string) {
	t.Helper()
	got := m.Running()
	want := slices.Clone(running)
	slices.SortFunc(want, func(a, b *job.Job) int { return cmp.Compare(a.ID, b.ID) })
	if !slices.Equal(got, want) || m.RunningCount() != len(want) {
		t.Fatalf("%s: Running() = %d jobs (count %d), want %d", step, len(got), m.RunningCount(), len(want))
	}
	for w := int64(1); w <= m.Total()+1; w++ {
		gs, ge := m.Reservation(now, w)
		ws, we := oracleReservation(m, now, w)
		if gs != ws || ge != we {
			t.Fatalf("%s: Reservation(%d, %d) = (%d, %d), oracle (%d, %d)", step, now, w, gs, ge, ws, we)
		}
	}
	m.FillAvailability(p, now)
	gt, ga := p.Segments()
	wt, wa := oracleAvailability(m, now).Segments()
	if !slices.Equal(gt, wt) || !slices.Equal(ga, wa) {
		t.Fatalf("%s: FillAvailability at %d = %v %v, oracle %v %v", step, now, gt, ga, wt, wa)
	}
}

// TestReleaseOrderMatchesOracle drives machines through seeded random
// starts, finishes, corrections, drains, restores and clock advances —
// with predictions drawn from a narrow range so ends tie, and the clock
// running past predicted ends so jobs go overdue — and checks every
// availability answer against the oracle after each step.
func TestReleaseOrderMatchesOracle(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewPCG(seed, 0x5eed))
		m := New(8 + r.Int64N(40))
		p := &Profile{}
		var running []*job.Job
		var now, nextID int64
		pick := func() (int, *job.Job) {
			i := r.IntN(len(running))
			return i, running[i]
		}
		for step := 0; step < 1500; step++ {
			var op string
			switch k := r.IntN(10); {
			case k < 3 && m.Free() > 0:
				op = "start"
				nextID++
				j := &job.Job{ID: nextID, Procs: 1 + r.Int64N(min(m.Free(), 12)), Start: now, Prediction: 1 + r.Int64N(12), Started: true}
				m.Start(j)
				running = append(running, j)
			case k < 5 && len(running) > 0:
				op = "finish"
				i, j := pick()
				m.Finish(j)
				running = slices.Delete(running, i, i+1)
			case k < 7 && len(running) > 0:
				op = "correct"
				_, j := pick()
				m.Correct(j, 1+r.Int64N(now-j.Start+12))
			case k == 7:
				op = "drain"
				m.Drain(1 + r.Int64N(8))
			case k == 8:
				op = "restore"
				m.Restore(1 + r.Int64N(8))
			default:
				op = "advance"
				now += r.Int64N(6)
			}
			checkAgainstOracle(t, m, running, now, p, op)
		}
	}
}

// TestMachineNotRunningPanics: finishing or correcting a job the machine
// does not hold under its current predicted end is a caller bug.
func TestMachineNotRunningPanics(t *testing.T) {
	cases := map[string]func(m *Machine, j *job.Job){
		"finish twice": func(m *Machine, j *job.Job) {
			m.Finish(j)
			m.Finish(j)
		},
		"correct unknown": func(m *Machine, _ *job.Job) { m.Correct(mkJob(2, 1, 0, 10), 20) },
		"correct finished": func(m *Machine, j *job.Job) {
			m.Finish(j)
			m.Correct(j, 20)
		},
		"finish after a prediction write": func(m *Machine, j *job.Job) {
			j.Prediction = 20 // bypasses Correct, so the index is stale
			m.Finish(j)
		},
		"finish a same-key impostor": func(m *Machine, j *job.Job) {
			m.Finish(mkJob(j.ID, j.Procs, j.Start, j.Prediction))
		},
	}
	for name, f := range cases {
		t.Run(name, func(t *testing.T) {
			m := New(10)
			j := mkJob(1, 2, 0, 10)
			m.Start(j)
			defer func() {
				if recover() == nil {
					t.Fatal("expected a panic")
				}
			}()
			f(m, j)
		})
	}
}

// TestMachineCorrectReorders: a correction moves the job's release, and
// the slot of a finished job is reused without disturbing the others.
func TestMachineCorrectReorders(t *testing.T) {
	m := New(10)
	a, b := mkJob(1, 4, 0, 10), mkJob(2, 4, 0, 20)
	m.Start(a)
	m.Start(b)
	if shadow, extra := m.Reservation(5, 6); shadow != 10 || extra != 0 {
		t.Fatalf("before correction: (%d, %d), want (10, 0)", shadow, extra)
	}
	m.Correct(a, 30)
	if a.Prediction != 30 {
		t.Fatalf("Correct did not install the prediction: %d", a.Prediction)
	}
	if shadow, extra := m.Reservation(5, 6); shadow != 20 || extra != 0 {
		t.Fatalf("after correction: (%d, %d), want (20, 0)", shadow, extra)
	}
	m.Finish(b)
	c := mkJob(3, 4, 5, 1)
	m.Start(c)
	if got := m.Running(); len(got) != 2 || got[0] != a || got[1] != c {
		t.Fatalf("Running() = %v, want jobs 1 and 3", got)
	}
	if shadow, extra := m.Reservation(5, 5); shadow != 6 || extra != 1 {
		t.Fatalf("after slot reuse: (%d, %d), want (6, 1)", shadow, extra)
	}
}

// TestFillAvailabilityAllocatesNothing: refilling a profile whose
// backing arrays have already grown to the machine's release count
// allocates nothing, drain absorption and overdue releases included.
func TestFillAvailabilityAllocatesNothing(t *testing.T) {
	m := New(64)
	for id := int64(1); id <= 30; id++ {
		m.Start(mkJob(id, 2, 0, 3*id))
	}
	m.Drain(8)
	p := &Profile{}
	m.FillAvailability(p, 10)
	if n := p.SegmentCount(); n < 20 {
		t.Fatalf("profile has %d segments; the test needs many releases", n)
	}
	if allocs := testing.AllocsPerRun(100, func() { m.FillAvailability(p, 10) }); allocs != 0 {
		t.Fatalf("FillAvailability into a reused profile: %.0f allocs per call, want 0", allocs)
	}
}
