package sched

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/job"
	"repro/internal/platform"
)

// The tests here target the incremental machinery directly: hook-driven
// state maintenance, the fallback rebuilds when Pick is called without
// hooks, and the per-instant decision caches. The end-to-end guarantee —
// schedules identical to the reference policies — lives in the sim
// package's property tests.

// TestEASYPickWithoutHooksMatchesReference: a hook-less Pick must fall
// back to rebuilding the SJBF index from the queue and agree with the
// from-scratch reference.
func TestEASYPickWithoutHooksMatchesReference(t *testing.T) {
	m := platform.New(10)
	running(m, 99, 6, 0, 100)
	q := []*job.Job{waiting(1, 8, 10, 1000), waiting(2, 4, 20, 60), waiting(3, 4, 21, 10)}
	got := NewEASY(SJBFOrder).Pick(25, m, q)
	want := (ReferenceEASY{Backfill: SJBFOrder}).Pick(25, m, q)
	if got != want {
		t.Fatalf("fallback Pick = %v, reference = %v", got, want)
	}
	if got == nil || got.ID != 3 {
		t.Fatalf("SJBF should pick the shortest prediction, got %v", got)
	}
}

// TestEASYRebuildKeepsTiedJobsInArrivalOrder: jobs whose keys tie
// (prediction, submission and a reused ID) are scanned in arrival order
// by the hooks and by ReferenceEASY, so a rebuilt index must keep that
// order too. Every tied job fits here, so the first one must start.
func TestEASYRebuildKeepsTiedJobsInArrivalOrder(t *testing.T) {
	m := platform.New(100)
	running(m, 99, 60, 0, 100) // 40 free until t=100
	for n := 2; n <= 200; n++ {
		q := []*job.Job{waiting(1, 90, 0, 1000)}
		for k := range n {
			q = append(q, waiting(7, 40-int64(k%40), 5, 10))
		}
		got := NewEASY(SJBFOrder).Pick(20, m, q)
		want := (ReferenceEASY{Backfill: SJBFOrder}).Pick(20, m, q)
		if got != want || got == nil {
			t.Fatalf("n=%d: incremental picked procs %d, reference procs %d", n, procsOf(got), procsOf(want))
		}
	}
}

func procsOf(j *job.Job) int64 {
	if j == nil {
		return 0
	}
	return j.Procs
}

// TestEASYIndexMaintainedByHooks drives the SJBF index purely through
// OnSubmit/OnStart and checks scan order follows predictions.
func TestEASYIndexMaintainedByHooks(t *testing.T) {
	m := platform.New(10)
	running(m, 99, 6, 0, 100)
	e := NewEASY(SJBFOrder)
	head := waiting(1, 8, 10, 1000)
	a := waiting(2, 2, 20, 60)
	b := waiting(3, 2, 21, 10)
	// Prime the machine association, then submit via hooks.
	if got := e.Pick(10, m, []*job.Job{head}); got != nil {
		t.Fatalf("head should not fit, got %v", got)
	}
	e.OnSubmit(head, 10)
	e.OnSubmit(a, 20)
	e.OnSubmit(b, 21)
	q := []*job.Job{head, a, b}
	if got := e.Pick(25, m, q); got == nil || got.ID != 3 {
		t.Fatalf("hook-maintained index should pick job 3, got %v", got)
	}
	// Start the picked job: it leaves the index, the next scan picks a.
	e.OnStart(b, 25)
	m.Start(&job.Job{ID: b.ID, Procs: b.Procs, Start: 25, Prediction: b.Prediction, Started: true})
	if got := e.Pick(25, m, []*job.Job{head, a}); got == nil || got.ID != 2 {
		t.Fatalf("after start, index should pick job 2, got %v", got)
	}
}

// TestEASYExtraConsumedIncrementally: a backfill start that outlives the
// shadow uses up the extra processors, so a second candidate of the same
// width is rejected within the same instant — exactly what the
// from-scratch recomputation would decide.
func TestEASYExtraConsumedIncrementally(t *testing.T) {
	m := platform.New(10)
	running(m, 99, 6, 0, 100)
	e := NewEASY(FCFSOrder)
	head := waiting(1, 8, 10, 1000)
	// Two narrow long jobs: each fits the extra (10-8=2) alone, but only
	// one may start — the second would steal the head's processors.
	n1 := waiting(2, 2, 20, 100000)
	n2 := waiting(3, 2, 21, 100000)
	q := []*job.Job{head, n1, n2}
	got := e.Pick(25, m, q)
	if got == nil || got.ID != 2 {
		t.Fatalf("first narrow job should backfill, got %v", got)
	}
	started := &job.Job{ID: n1.ID, Procs: n1.Procs, Start: 25, Prediction: n1.Prediction, Started: true}
	m.Start(started)
	e.OnStart(started, 25)
	if got := e.Pick(25, m, []*job.Job{head, n2}); got != nil {
		t.Fatalf("second narrow job must not also backfill, got job %d", got.ID)
	}
	// The reference agrees.
	if got := (ReferenceEASY{}).Pick(25, m, []*job.Job{head, n2}); got != nil {
		t.Fatalf("reference disagrees: job %d", got.ID)
	}
}

// TestConservativePickWithoutHooksMatchesReference: with no hook driving,
// Pick resyncs from the machine and must agree with the reference.
func TestConservativePickWithoutHooksMatchesReference(t *testing.T) {
	m := platform.New(10)
	running(m, 99, 6, 0, 100)
	head := waiting(1, 8, 10, 1000)
	short := waiting(2, 4, 20, 50)
	long := waiting(3, 4, 20, 200)
	for _, q := range [][]*job.Job{
		{head, short},
		{head, long},
		{head, long, short},
	} {
		got := NewConservative().Pick(20, m, q)
		want := (ReferenceConservative{}).Pick(20, m, q)
		if got != want {
			t.Fatalf("queue %v: incremental %v, reference %v", q, got, want)
		}
	}
}

// TestConservativeDecisionCache: within one instant the scan runs once;
// repeated Picks pop cached decisions as the engine starts each job.
func TestConservativeDecisionCache(t *testing.T) {
	m := platform.New(10)
	c := NewConservative()
	a := waiting(1, 4, 0, 100)
	b := waiting(2, 4, 0, 100)
	wide := waiting(3, 8, 0, 100)
	q := []*job.Job{a, b, wide}
	got := c.Pick(0, m, q)
	if got == nil || got.ID != 1 {
		t.Fatalf("first pick should be job 1, got %v", got)
	}
	sa := &job.Job{ID: a.ID, Procs: a.Procs, Start: 0, Prediction: a.Prediction, Started: true}
	m.Start(sa)
	c.OnStart(sa, 0)
	got = c.Pick(0, m, []*job.Job{b, wide})
	if got == nil || got.ID != 2 {
		t.Fatalf("second pick should be job 2, got %v", got)
	}
	sb := &job.Job{ID: b.ID, Procs: b.Procs, Start: 0, Prediction: b.Prediction, Started: true}
	m.Start(sb)
	c.OnStart(sb, 0)
	if got = c.Pick(0, m, []*job.Job{wide}); got != nil {
		t.Fatalf("wide job cannot start now, got job %d", got.ID)
	}
}

// TestConservativeCutScanThenSubmit: on a saturated machine the scan
// stops once no unscanned job fits now, leaving scratch without the
// later reservations. Same-instant submissions must then either be
// ruled out against that partial profile or force a rescan; every Pick
// along the way matches the reference.
func TestConservativeCutScanThenSubmit(t *testing.T) {
	const now = 10
	m := platform.New(10)
	running(m, 99, 6, 0, 20) // 4 free until t=20
	c := NewConservative()
	queue := []*job.Job{
		waiting(1, 2, 0, 5),   // fits now
		waiting(2, 9, 1, 100), // would reserve [20,120) but is never scanned
	}
	step := func(what string) {
		t.Helper()
		for {
			got := c.Pick(now, m, queue)
			want := (ReferenceConservative{}).Pick(now, m, queue)
			if got != want {
				t.Fatalf("%s: incremental %v, reference %v", what, got, want)
			}
			if got == nil {
				return
			}
			got.Start, got.Started = now, true
			m.Start(got)
			c.OnStart(got, now)
			queue = slices.DeleteFunc(queue, func(j *job.Job) bool { return j == got })
		}
	}
	submit := func(j *job.Job) {
		queue = append(queue, j)
		c.OnSubmit(j, now)
		step(fmt.Sprintf("after submitting job %d", j.ID))
	}

	step("initial scan")
	if !c.cut {
		t.Fatal("scan should stop once no unscanned job fits now")
	}
	// 5 procs do not fit in [10,15) even without job 2's reservation:
	// ruled out with the cache kept.
	submit(waiting(3, 5, now, 5))
	if !c.cacheOK {
		t.Fatal("a submission that cannot fit now must not discard the cache")
	}
	// Fits the partial profile, but job 2's reservation leaves one
	// processor from t=20 in the full one: scanning it against the cut
	// profile would start it wrongly.
	submit(waiting(4, 2, now, 30))
	// Fits the full profile too: ignoring it would miss a start.
	submit(waiting(5, 2, now, 3))
	if len(queue) != 3 {
		t.Fatalf("job 5 alone should have started, queue %v", queue)
	}
}

// TestConservativeEarlyFinishCompressesProfile: a completion before its
// predicted end must make the freed window usable immediately, even when
// a Pick at the same instant already decided that nothing starts.
func TestConservativeEarlyFinishCompressesProfile(t *testing.T) {
	m := platform.New(10)
	c := NewConservative()
	long := &job.Job{ID: 99, Procs: 6, Start: 0, Prediction: 1000, Started: true}
	m.Start(long)
	head := waiting(1, 8, 0, 500)
	if got := c.Pick(10, m, []*job.Job{head}); got != nil {
		t.Fatalf("head cannot start while the long job runs, got %v", got)
	}
	// The long job finishes at t=10, far before its predicted end 1000.
	m.Finish(long)
	c.OnFinish(long, 10)
	got := c.Pick(10, m, []*job.Job{head})
	want := (ReferenceConservative{}).Pick(10, m, []*job.Job{head})
	if want == nil || want.ID != head.ID {
		t.Fatalf("reference should start the head after the early finish, got %v", want)
	}
	if got != want {
		t.Fatalf("incremental %v, reference %v after early finish", got, want)
	}
}

// TestConservativeExpiryExtendsProfile: a corrected prediction must push
// the job's reservation out so a queued job no longer fits before it.
func TestConservativeExpiryExtendsProfile(t *testing.T) {
	m := platform.New(10)
	c := NewConservative()
	runner := &job.Job{ID: 99, Procs: 6, Start: 0, Prediction: 50, Started: true}
	m.Start(runner)
	c.OnStart(runner, 0)
	// A 4-wide job predicted for 40s fits in the hole before t=50.
	fits := waiting(1, 8, 0, 500)
	filler := waiting(2, 4, 0, 40)
	got := c.Pick(0, m, []*job.Job{fits, filler})
	if got == nil || got.ID != 2 {
		t.Fatalf("filler should fit before the predicted release, got %v", got)
	}
	// Instead, at t=50 the runner outlives its prediction. Overdue, it
	// releases at t=51, where the wide job's reservation leaves the
	// filler too little room: nothing starts.
	if got = c.Pick(50, m, []*job.Job{fits, filler}); got != nil {
		t.Fatalf("overdue runner: nothing should start, got %v", got)
	}
	// The correction at the same instant extends the runner to 200, so
	// the wide job's reservation moves to t=200 and the filler fits
	// before it: the cached decision must not stand.
	m.Correct(runner, 200)
	c.OnExpiry(runner, 50)
	got = c.Pick(50, m, []*job.Job{fits, filler})
	want := (ReferenceConservative{}).Pick(50, m, []*job.Job{fits, filler})
	if want != filler || got != want {
		t.Fatalf("after expiry: incremental %v, reference %v, want the filler", got, want)
	}
}

// TestConservativeRestoreAtSameInstant: a restore after a Pick at the
// same instant returns processors, so the cached "nothing starts" must
// not stand.
func TestConservativeRestoreAtSameInstant(t *testing.T) {
	m := platform.New(10)
	m.Drain(6)
	c := NewConservative()
	q := []*job.Job{waiting(1, 8, 0, 100)}
	if got := c.Pick(10, m, q); got != nil {
		t.Fatalf("4 processors in service: nothing should start, got %v", got)
	}
	m.Restore(6)
	c.OnCapacityChange(10, m)
	if got := c.Pick(10, m, q); got != q[0] {
		t.Fatalf("after the restore the head should start, got %v", got)
	}
}

// TestPolicyMachineSwapAtSameInstant: a policy value handed a second
// machine at the same instant plans against that machine and its queue,
// not from the decision cache or SJBF index it built for the first. The
// two queues have the same length, so only the machine tells them apart.
func TestPolicyMachineSwapAtSameInstant(t *testing.T) {
	const now = 20
	type world struct {
		m *platform.Machine
		q []*job.Job
	}
	newWorld := func(head, filler *job.Job) world {
		m := platform.New(10)
		running(m, 99, 6, 0, 100) // 4 free until t=100
		return world{m, []*job.Job{head, filler}}
	}
	// In a, the filler ends before the head's reservation and starts; in
	// b, it would delay the head and must wait.
	a := newWorld(waiting(1, 8, 0, 1000), waiting(2, 2, 0, 10))
	b := newWorld(waiting(3, 8, 0, 1000), waiting(4, 4, 0, 500))
	for _, tc := range []struct{ p, ref Policy }{
		{NewConservative(), ReferenceConservative{}},
		{NewEASY(SJBFOrder), ReferenceEASY{Backfill: SJBFOrder}},
	} {
		for k, w := range []world{a, b, a} {
			got, want := tc.p.Pick(now, w.m, w.q), tc.ref.Pick(now, w.m, w.q)
			if got != want {
				t.Fatalf("%s, pick %d: got %v, reference %v", tc.p.Name(), k, got, want)
			}
		}
	}
}

// TestConservativePerEventPickAllocatesNothing: once its scratch profile
// and decision cache have grown, a Pick at each new instant — refill from
// the machine, reserve and cache — allocates nothing.
func TestConservativePerEventPickAllocatesNothing(t *testing.T) {
	m := platform.New(64)
	for id := int64(1); id <= 30; id++ {
		running(m, 100+id, 2, 0, 1000+10*id) // 4 free
	}
	var queue []*job.Job
	for id := int64(1); id <= 40; id++ {
		queue = append(queue, waiting(id, 1+id%8, id, 50+7*id))
	}
	c := NewConservative()
	now := int64(10)
	if c.Pick(now, m, queue) == nil {
		t.Fatal("some queued job should fit now")
	}
	allocs := testing.AllocsPerRun(100, func() {
		now++
		c.Pick(now, m, queue)
	})
	if allocs != 0 {
		t.Fatalf("per-event Pick: %.0f allocs, want 0", allocs)
	}
}

// TestPolicyHooksAreNoOpsForStateless: FCFS and the reference policies
// accept hook calls without effect (they satisfy the Policy interface).
func TestPolicyHooksAreNoOpsForStateless(t *testing.T) {
	j := waiting(1, 2, 0, 10)
	for _, p := range []Policy{NewFCFS(), ReferenceEASY{}, ReferenceConservative{}} {
		p.OnSubmit(j, 0)
		p.OnStart(j, 0)
		p.OnFinish(j, 5)
		p.OnExpiry(j, 5)
	}
}

// TestReferenceNames: the reference policies report the same names as
// the incremental ones so result tables line up.
func TestReferenceNames(t *testing.T) {
	if (ReferenceEASY{}).Name() != "EASY" || (ReferenceEASY{Backfill: SJBFOrder}).Name() != "EASY-SJBF" {
		t.Fatal("reference EASY names")
	}
	if (ReferenceConservative{}).Name() != "Conservative" {
		t.Fatal("reference conservative name")
	}
}
