package platform

import "testing"

// The time-varying capacity model: drains claim idle processors
// immediately and busy ones as their jobs finish, restores undo them,
// and the availability views (Reservation, ProfileFromMachine) plan
// against the eventual capacity with pending drains absorbing the
// earliest predicted releases.

func TestDrainIdleProcessors(t *testing.T) {
	m := New(10)
	if applied := m.Drain(4); applied != 4 {
		t.Fatalf("applied = %d, want 4 (all idle)", applied)
	}
	if m.Capacity() != 6 || m.Free() != 6 || m.PendingDrain() != 0 {
		t.Fatalf("capacity=%d free=%d pending=%d after idle drain", m.Capacity(), m.Free(), m.PendingDrain())
	}
	if m.EventualCapacity() != 6 {
		t.Fatalf("eventual capacity = %d, want 6", m.EventualCapacity())
	}
}

func TestDrainBusyProcessorsWaits(t *testing.T) {
	m := New(10)
	j := mkJob(1, 7, 0, 100)
	m.Start(j)
	// 3 idle, request 5: 3 applied now, 2 pending.
	if applied := m.Drain(5); applied != 3 {
		t.Fatalf("applied = %d, want 3", applied)
	}
	if m.Capacity() != 7 || m.Free() != 0 || m.PendingDrain() != 2 {
		t.Fatalf("capacity=%d free=%d pending=%d", m.Capacity(), m.Free(), m.PendingDrain())
	}
	if m.EventualCapacity() != 5 {
		t.Fatalf("eventual capacity = %d, want 5", m.EventualCapacity())
	}
	// The finish releases 7; the pending drain absorbs 2 of them.
	m.Finish(j)
	if m.Capacity() != 5 || m.Free() != 5 || m.PendingDrain() != 0 {
		t.Fatalf("after absorption: capacity=%d free=%d pending=%d", m.Capacity(), m.Free(), m.PendingDrain())
	}
}

func TestPendingDrainImpliesNoFree(t *testing.T) {
	m := New(8)
	m.Start(mkJob(1, 5, 0, 100))
	m.Drain(6) // 3 applied, 3 pending
	if m.PendingDrain() > 0 && m.Free() != 0 {
		t.Fatalf("pending=%d with free=%d violates the drain invariant", m.PendingDrain(), m.Free())
	}
}

func TestDrainClampedAtEventualCapacity(t *testing.T) {
	m := New(10)
	m.Start(mkJob(1, 4, 0, 100))
	m.Drain(8) // 6 applied, 2 pending; eventual 2
	if applied := m.Drain(5); applied != 0 {
		t.Fatalf("over-drain applied %d, want 0", applied)
	}
	if m.EventualCapacity() != 0 || m.PendingDrain() != 4 {
		t.Fatalf("eventual=%d pending=%d, want 0,4 (clamped at zero)", m.EventualCapacity(), m.PendingDrain())
	}
}

func TestRestoreCancelsPendingFirst(t *testing.T) {
	m := New(10)
	m.Start(mkJob(1, 7, 0, 100))
	m.Drain(5) // 3 applied, 2 pending
	if restored := m.Restore(5); restored != 3 {
		t.Fatalf("restored = %d, want 3 (2 cancel the pending drain)", restored)
	}
	if m.Capacity() != 10 || m.Free() != 3 || m.PendingDrain() != 0 {
		t.Fatalf("capacity=%d free=%d pending=%d after restore", m.Capacity(), m.Free(), m.PendingDrain())
	}
}

func TestRestoreNeverExceedsNominal(t *testing.T) {
	m := New(10)
	m.Drain(4)
	if restored := m.Restore(100); restored != 4 {
		t.Fatalf("restored = %d, want 4", restored)
	}
	if m.Capacity() != 10 || m.Free() != 10 {
		t.Fatalf("capacity=%d free=%d, want 10,10", m.Capacity(), m.Free())
	}
}

func TestReservationPendingDrainAbsorbsEarliestRelease(t *testing.T) {
	m := New(10)
	m.Start(mkJob(1, 4, 0, 50))  // releases at 50
	m.Start(mkJob(2, 6, 0, 100)) // releases at 100
	m.Drain(4)                   // all busy: 4 pending
	// A 4-wide job: job 1's release at 50 is fully absorbed by the
	// pending drain; only job 2's 6 procs at t=100 count.
	shadow, extra := m.Reservation(10, 4)
	if shadow != 100 || extra != 2 {
		t.Fatalf("shadow=%d extra=%d, want 100,2", shadow, extra)
	}
	// Wider than the eventual capacity (10-4=6): never.
	if shadow, _ := m.Reservation(10, 7); shadow != InfiniteTime {
		t.Fatalf("job wider than eventual capacity got shadow %d", shadow)
	}
}

func TestReservationAfterAppliedDrain(t *testing.T) {
	m := New(10)
	m.Start(mkJob(1, 6, 0, 80))
	m.Drain(4) // applied immediately (4 idle)
	// 6 procs become available only when job 1 releases at 80.
	shadow, extra := m.Reservation(0, 6)
	if shadow != 80 || extra != 0 {
		t.Fatalf("shadow=%d extra=%d, want 80,0", shadow, extra)
	}
}

func TestProfileFromMachineUnderPendingDrain(t *testing.T) {
	m := New(10)
	m.Start(mkJob(1, 4, 0, 50))
	m.Start(mkJob(2, 6, 0, 100))
	m.Drain(4)
	p := ProfileFromMachine(m, 10)
	if p.Total() != 6 {
		t.Fatalf("profile capacity = %d, want eventual 6", p.Total())
	}
	if p.AvailableAt(10) != 0 {
		t.Fatalf("available now = %d, want 0", p.AvailableAt(10))
	}
	if p.AvailableAt(50) != 0 {
		t.Fatalf("available at 50 = %d, want 0 (release absorbed by drain)", p.AvailableAt(50))
	}
	if p.AvailableAt(100) != 6 {
		t.Fatalf("available at 100 = %d, want 6", p.AvailableAt(100))
	}
}

func TestProfileFromMachineFullyDrained(t *testing.T) {
	m := New(10)
	m.Start(mkJob(1, 10, 0, 50))
	m.Drain(10) // everything pending
	p := ProfileFromMachine(m, 0)
	if p.Total() != 0 {
		t.Fatalf("profile capacity = %d, want 0", p.Total())
	}
	if got := p.FindStart(0, 10, 1); got != InfiniteTime {
		t.Fatalf("FindStart on a fully drained machine = %d, want InfiniteTime", got)
	}
}

func TestZeroCapacityProfileOps(t *testing.T) {
	p := NewProfile(5, 0)
	if p.AvailableAt(1000) != 0 {
		t.Fatal("zero-capacity profile should have no availability")
	}
}

func TestDrainRestoreRoundTripKeepsViewsConsistent(t *testing.T) {
	m := New(12)
	a := mkJob(1, 5, 0, 40)
	b := mkJob(2, 4, 0, 90)
	m.Start(a)
	m.Start(b)
	m.Drain(6)   // 3 applied, 3 pending
	m.Restore(2) // cancels 2 pending
	m.Finish(a)  // releases 5, absorbs remaining 1 pending
	if m.PendingDrain() != 0 || m.Capacity() != 8 || m.Free() != 4 {
		t.Fatalf("capacity=%d free=%d pending=%d", m.Capacity(), m.Free(), m.PendingDrain())
	}
	// With no pending drain the profile view is the classic one at the
	// reduced capacity.
	p := ProfileFromMachine(m, 10)
	if p.Total() != 8 || p.AvailableAt(10) != 4 || p.AvailableAt(90) != 8 {
		t.Fatalf("profile total=%d now=%d at90=%d", p.Total(), p.AvailableAt(10), p.AvailableAt(90))
	}
	shadow, _ := m.Reservation(10, 8)
	if shadow != 90 {
		t.Fatalf("shadow = %d, want 90", shadow)
	}
}
