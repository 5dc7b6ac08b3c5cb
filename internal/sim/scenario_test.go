package sim_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/correct"
	"repro/internal/job"
	"repro/internal/predict"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/swf"
	"repro/internal/trace"
)

// The dynamic-events subsystem must be a pure extension: an empty
// scenario reproduces the static engine decision for decision, and under
// randomized disruption scripts the incremental policies still match the
// from-scratch references while no schedule ever exceeds the
// instantaneous (realized) capacity.

func allPolicies() []struct {
	name string
	mk   func() sched.Policy
} {
	return []struct {
		name string
		mk   func() sched.Policy
	}{
		{"fcfs", func() sched.Policy { return sched.NewFCFS() }},
		{"easy", func() sched.Policy { return sched.NewEASY(sched.FCFSOrder) }},
		{"easy-sjbf", func() sched.Policy { return sched.NewEASY(sched.SJBFOrder) }},
		{"conservative", func() sched.Policy { return sched.NewConservative() }},
		{"ref-easy", func() sched.Policy { return sched.ReferenceEASY{Backfill: sched.FCFSOrder} }},
		{"ref-easy-sjbf", func() sched.Policy { return sched.ReferenceEASY{Backfill: sched.SJBFOrder} }},
		{"ref-conservative", func() sched.Policy { return sched.ReferenceConservative{} }},
	}
}

// TestEmptyScenarioIsIdentity: with an empty (or nil) script, every
// policy — incremental and reference — produces exactly the schedule the
// static engine produces.
func TestEmptyScenarioIsIdentity(t *testing.T) {
	empty := scenario.NewBuilder("empty").MustBuild()
	for seed := uint64(1); seed <= 4; seed++ {
		w := randomWorkload(seed)
		for _, p := range allPolicies() {
			label := fmt.Sprintf("seed=%d policy=%s", seed, p.name)
			assertIdenticalSchedules(t, w, label,
				sim.Config{Policy: p.mk(), Predictor: predict.NewUserAverage(2), Corrector: correct.Incremental{}, Script: empty},
				sim.Config{Policy: p.mk(), Predictor: predict.NewUserAverage(2), Corrector: correct.Incremental{}},
			)
		}
	}
}

// disruptedConfigs pairs each incremental policy with its reference
// under one shared script.
func disruptedConfigs(script *scenario.Script) []struct {
	name     string
	inc, ref sim.Config
} {
	mkPred := func() predict.Predictor { return predict.NewUserAverage(2) }
	return []struct {
		name     string
		inc, ref sim.Config
	}{
		{
			"easy",
			sim.Config{Policy: sched.NewEASY(sched.FCFSOrder), Predictor: mkPred(), Corrector: correct.Incremental{}, Script: script},
			sim.Config{Policy: sched.ReferenceEASY{Backfill: sched.FCFSOrder}, Predictor: mkPred(), Corrector: correct.Incremental{}, Script: script},
		},
		{
			"easy-sjbf",
			sim.Config{Policy: sched.NewEASY(sched.SJBFOrder), Predictor: mkPred(), Corrector: correct.Incremental{}, Script: script},
			sim.Config{Policy: sched.ReferenceEASY{Backfill: sched.SJBFOrder}, Predictor: mkPred(), Corrector: correct.Incremental{}, Script: script},
		},
		{
			"conservative",
			sim.Config{Policy: sched.NewConservative(), Predictor: mkPred(), Corrector: correct.Incremental{}, Script: script},
			sim.Config{Policy: sched.ReferenceConservative{}, Predictor: mkPred(), Corrector: correct.Incremental{}, Script: script},
		},
	}
}

// TestDisruptedIncrementalMatchesReference: under randomized disruption
// scripts (maintenance windows, drains, cancellations at every
// intensity), the incremental policies remain decision-for-decision
// identical to the references, and both schedules validate against the
// realized capacity timeline.
func TestDisruptedIncrementalMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		w := randomWorkload(seed)
		for _, in := range scenario.Intensities[1:] { // skip "none": covered by the identity test
			script := scenario.Generate(w, in, seed*1000+7)
			for _, c := range disruptedConfigs(script) {
				label := fmt.Sprintf("seed=%d intensity=%s policy=%s", seed, in.Name, c.name)
				assertIdenticalSchedules(t, w, label, c.inc, c.ref)
			}
		}
	}
}

// scriptedWorkload builds a fixed 8-processor scheduling problem used by
// the cancel and capacity tests below.
func scriptedWorkload(jobs ...swf.Job) *trace.Workload {
	return &trace.Workload{Name: "scripted", MaxProcs: 8, Jobs: jobs}
}

func mkSWF(id, submit, run, procs, req int64) swf.Job {
	return swf.Job{JobNumber: id, SubmitTime: submit, RunTime: run,
		AllocatedProcs: procs, RequestedProcs: procs, RequestedTime: req, Status: 1}
}

func runScripted(t *testing.T, w *trace.Workload, script *scenario.Script, policy sched.Policy) *sim.Result {
	t.Helper()
	res, err := sim.Run(w, sim.Config{
		Policy:    policy,
		Predictor: predict.NewRequestedTime(),
		Script:    script,
	})
	if err != nil {
		t.Fatal(err)
	}
	if errs := sim.ValidateResult(res); len(errs) != 0 {
		t.Fatalf("invalid schedule: %v", errs[0])
	}
	return res
}

// cancelScenario cancels one job in each cancellation state: before
// submission (3), while queued (2), while running (4), and after
// completion (5, stale).
func cancelScenario() (*trace.Workload, *scenario.Script) {
	w := scriptedWorkload(
		mkSWF(1, 0, 100, 8, 200), // runs [0,100) on the whole machine
		mkSWF(2, 0, 50, 8, 100),  // queued behind job 1, canceled at t=10
		mkSWF(3, 5, 50, 4, 100),  // canceled at t=2, before submission
		mkSWF(4, 0, 400, 4, 500), // starts at 100, killed at 130 after 30s
		mkSWF(5, 0, 10, 4, 20),   // starts at 100, finishes 110; stale cancel at 150
		mkSWF(6, 100, 10, 8, 20), // keeps the machine drained of idle time
	)
	script := scenario.NewBuilder("cancels").
		Cancel(2, 3).   // pre-submission
		Cancel(10, 2).  // queued
		Cancel(130, 4). // running
		Cancel(150, 5). // after completion: stale
		MustBuild()
	return w, script
}

// TestCancelStateMachine drives one job through each cancellation state.
func TestCancelStateMachine(t *testing.T) {
	w, script := cancelScenario()
	res := runScripted(t, w, script, sched.NewEASY(sched.SJBFOrder))

	if res.Canceled != 3 {
		t.Fatalf("canceled = %d, want 3 (the stale cancel is a no-op)", res.Canceled)
	}
	byID := map[int64]int{}
	for i, j := range res.Jobs {
		byID[j.ID] = i
	}
	j3 := res.Jobs[byID[3]]
	if !j3.Canceled || j3.Started || j3.Finished {
		t.Fatalf("pre-submit cancel: %+v", j3)
	}
	j2 := res.Jobs[byID[2]]
	if !j2.Canceled || j2.Started {
		t.Fatalf("queued cancel: %+v", j2)
	}
	j4 := res.Jobs[byID[4]]
	if !j4.Canceled || !j4.Started || !j4.Finished {
		t.Fatalf("running cancel: %+v", j4)
	}
	if j4.End != 130 || j4.Runtime != j4.End-j4.Start {
		t.Fatalf("killed job end=%d runtime=%d start=%d", j4.End, j4.Runtime, j4.Start)
	}
	j5 := res.Jobs[byID[5]]
	if j5.Canceled || !j5.Finished || j5.Runtime != 10 {
		t.Fatalf("stale cancel must not touch a completed job: %+v", j5)
	}
}

// releaseRecorder is a requested-time predictor that records the jobs
// the engine finishes and the ones it releases through predict.Releaser.
type releaseRecorder struct {
	*predict.RequestedTime
	finished, released []int64
}

func (p *releaseRecorder) OnFinish(j *job.Job, _ int64) { p.finished = append(p.finished, j.ID) }
func (p *releaseRecorder) Release(j *job.Job)           { p.released = append(p.released, j.ID) }

// TestQueuedCancelReleasesPredictorState: a job canceled while queued
// never finishes, so the engine releases the predictor's state for it,
// once. A killed job still finishes (and is learned from), and a job
// canceled before submission was never predicted: neither is released.
func TestQueuedCancelReleasesPredictorState(t *testing.T) {
	w, script := cancelScenario()
	p := &releaseRecorder{RequestedTime: predict.NewRequestedTime()}
	if _, err := sim.Run(w, sim.Config{Policy: sched.NewEASY(sched.SJBFOrder), Predictor: p, Script: script}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(p.released, []int64{2}) {
		t.Fatalf("released %v, want only the queued cancel [2]", p.released)
	}
	slices.Sort(p.finished)
	if !slices.Equal(p.finished, []int64{1, 4, 5, 6}) {
		t.Fatalf("finished %v, want [1 4 5 6] (the kill included)", p.finished)
	}
}

// TestMaintenanceWindowDelaysWideJob: during a maintenance window the
// machine cannot host a job wider than the remaining capacity; the job
// starts once the window ends and the capacity timeline records the
// steps.
func TestMaintenanceWindowDelaysWideJob(t *testing.T) {
	w := scriptedWorkload(
		mkSWF(1, 0, 10, 2, 20),  // warm-up job
		mkSWF(2, 30, 40, 7, 80), // wider than the 8-6=2 procs left in the window
	)
	script := scenario.NewBuilder("mw").Maintenance(20, 100, 6).MustBuild()
	for _, p := range allPolicies() {
		res := runScripted(t, w, script, p.mk())
		j2 := res.Jobs[1]
		if j2.Start != 100 {
			t.Fatalf("%s: wide job started at %d, want 100 (window end)", p.name, j2.Start)
		}
		if len(res.CapacitySteps) == 0 {
			t.Fatalf("%s: no capacity steps recorded", p.name)
		}
		first := res.CapacitySteps[0]
		if first.At != 20 || first.Capacity != 2 {
			t.Fatalf("%s: first capacity step %+v, want {20 2}", p.name, first)
		}
		last := res.CapacitySteps[len(res.CapacitySteps)-1]
		if last.Capacity != 8 {
			t.Fatalf("%s: final capacity %d, want 8 (restored)", p.name, last.Capacity)
		}
	}
}

// TestGracefulDrainWaitsForRunningJob: a drain wider than the idle pool
// goes pending and absorbs the running job's processors when it
// completes; nothing can start in between even though predictions say
// processors will free up.
func TestGracefulDrainWaitsForRunningJob(t *testing.T) {
	w := scriptedWorkload(
		mkSWF(1, 0, 60, 6, 100), // runs [0,60)
		mkSWF(2, 10, 10, 4, 20), // wants 4 procs; eventual capacity is 2 until restore
	)
	script := scenario.NewBuilder("drain").Drain(5, 6).Restore(200, 6).MustBuild()
	for _, p := range allPolicies() {
		res := runScripted(t, w, script, p.mk())
		j2 := res.Jobs[1]
		if j2.Start != 200 {
			t.Fatalf("%s: job 2 started at %d, want 200 (after restore)", p.name, j2.Start)
		}
	}
}

// TestFullDrainParksTheMachine: draining everything stalls all starts;
// the restore revives the queue. Exercises the zero-eventual-capacity
// profile path.
func TestFullDrainParksTheMachine(t *testing.T) {
	w := scriptedWorkload(
		mkSWF(1, 10, 20, 4, 40),
		mkSWF(2, 12, 20, 8, 40),
		mkSWF(3, 14, 20, 1, 40),
	)
	script := scenario.NewBuilder("blackout").Drain(0, 8).Restore(500, 8).MustBuild()
	for _, p := range allPolicies() {
		res := runScripted(t, w, script, p.mk())
		for _, j := range res.Jobs {
			if j.Start < 500 {
				t.Fatalf("%s: job %d started at %d during the blackout", p.name, j.ID, j.Start)
			}
		}
	}
}

// TestCancelFreesCapacityForBackfill: killing a running job releases its
// processors to waiting work immediately.
func TestCancelFreesCapacityForBackfill(t *testing.T) {
	w := scriptedWorkload(
		mkSWF(1, 0, 300, 8, 400), // hogs the machine until killed at t=50
		mkSWF(2, 10, 30, 8, 60),
	)
	script := scenario.NewBuilder("kill").Cancel(50, 1).MustBuild()
	for _, p := range allPolicies() {
		res := runScripted(t, w, script, p.mk())
		j2 := res.Jobs[1]
		if j2.Start != 50 {
			t.Fatalf("%s: job 2 started at %d, want 50 (right after the kill)", p.name, j2.Start)
		}
	}
}
