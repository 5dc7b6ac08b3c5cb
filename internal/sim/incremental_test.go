package sim_test

import (
	"fmt"
	"testing"

	"repro/internal/correct"
	"repro/internal/predict"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/swf"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The incremental policies (SJBF index, decision cache) must be pure
// accelerations: decision-for-decision identical to
// the from-scratch reference formulations in sched/reference.go. These
// property tests replay random workloads (seeded via internal/rng, so
// failures reproduce exactly) through both and compare the realized
// schedules job by job.

// randomWorkload builds a random scheduling problem: bursty arrivals
// (many jobs share a submission instant), heavy width variation, and
// requested times that overestimate runtimes by a varying factor, so AVE2
// predictions undershoot and exercise the expiry/correction paths.
func randomWorkload(seed uint64) *trace.Workload {
	src := rng.New(seed)
	maxProcs := int64(8 + src.Intn(120))
	n := 150 + src.Intn(250)
	jobs := make([]swf.Job, n)
	var submit int64
	for i := range jobs {
		if !src.Bernoulli(0.3) { // 30% of jobs arrive at the same instant as the previous one
			submit += src.Int63n(120)
		}
		run := 1 + src.Int63n(600)
		procs := 1 + src.Int63n(maxProcs)
		jobs[i] = swf.Job{
			JobNumber:      int64(i + 1),
			SubmitTime:     submit,
			RunTime:        run,
			AllocatedProcs: procs,
			RequestedProcs: procs,
			RequestedTime:  run + src.Int63n(3*run),
			UserID:         int64(src.Intn(12)),
			Status:         1,
		}
	}
	return &trace.Workload{Name: fmt.Sprintf("rand-%d", seed), MaxProcs: maxProcs, Jobs: jobs}
}

// assertIdenticalSchedules runs the workload under both configurations
// and fails on the first divergent scheduling decision.
func assertIdenticalSchedules(t *testing.T, w *trace.Workload, label string, inc, ref sim.Config) {
	t.Helper()
	a, err := sim.Run(w, inc)
	if err != nil {
		t.Fatalf("%s: incremental run: %v", label, err)
	}
	b, err := sim.Run(w, ref)
	if err != nil {
		t.Fatalf("%s: reference run: %v", label, err)
	}
	if errs := sim.ValidateResult(a); len(errs) != 0 {
		t.Fatalf("%s: incremental schedule invalid: %v", label, errs[0])
	}
	if a.Corrections != b.Corrections {
		t.Errorf("%s: corrections diverged: incremental %d, reference %d", label, a.Corrections, b.Corrections)
	}
	for i := range a.Jobs {
		ja, jb := a.Jobs[i], b.Jobs[i]
		if ja.ID != jb.ID {
			t.Fatalf("%s: job order diverged at %d: %d vs %d", label, i, ja.ID, jb.ID)
		}
		if ja.Start != jb.Start || ja.End != jb.End {
			t.Fatalf("%s: job %d diverged: incremental [%d,%d), reference [%d,%d)",
				label, ja.ID, ja.Start, ja.End, jb.Start, jb.End)
		}
	}
}

// predictorConfigs enumerates the prediction regimes the comparison runs
// under: exact predictions (no expiries), overestimates that complete
// early (exercising early-finish compression), and user-history
// underestimates with corrections (exercising OnExpiry extension).
func predictorConfigs() []struct {
	name string
	mk   func() predict.Predictor
	corr correct.Corrector
} {
	return []struct {
		name string
		mk   func() predict.Predictor
		corr correct.Corrector
	}{
		{"clairvoyant", func() predict.Predictor { return predict.NewClairvoyant() }, correct.RequestedTime{}},
		{"requested", func() predict.Predictor { return predict.NewRequestedTime() }, correct.RequestedTime{}},
		{"ave2-incremental", func() predict.Predictor { return predict.NewUserAverage(2) }, correct.Incremental{}},
		{"ave2-doubling", func() predict.Predictor { return predict.NewUserAverage(2) }, correct.RecursiveDoubling{}},
	}
}

func TestIncrementalEASYMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		w := randomWorkload(seed)
		for _, order := range []sched.Order{sched.FCFSOrder, sched.SJBFOrder} {
			for _, pc := range predictorConfigs() {
				label := fmt.Sprintf("seed=%d order=%s pred=%s", seed, order, pc.name)
				assertIdenticalSchedules(t, w, label,
					sim.Config{Policy: sched.NewEASY(order), Predictor: pc.mk(), Corrector: pc.corr},
					sim.Config{Policy: sched.ReferenceEASY{Backfill: order}, Predictor: pc.mk(), Corrector: pc.corr},
				)
			}
		}
	}
}

func TestIncrementalConservativeMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		w := randomWorkload(seed)
		for _, pc := range predictorConfigs() {
			label := fmt.Sprintf("seed=%d pred=%s", seed, pc.name)
			assertIdenticalSchedules(t, w, label,
				sim.Config{Policy: sched.NewConservative(), Predictor: pc.mk(), Corrector: pc.corr},
				sim.Config{Policy: sched.ReferenceConservative{}, Predictor: pc.mk(), Corrector: pc.corr},
			)
		}
	}
}

// TestIncrementalEASYMatchesReferenceOnBurst queues a same-instant burst
// of 1,500 jobs behind wide long runners, so the SJBF index spans dozens
// of blocks while it drains, and a trickle of later arrivals is inserted
// into and picked from its middle. User-average predictions undershoot,
// so expiries move the shadow while the burst waits.
func TestIncrementalEASYMatchesReferenceOnBurst(t *testing.T) {
	src := rng.New(11)
	const maxProcs = 64
	jobs := []swf.Job{
		{JobNumber: 1, SubmitTime: 0, RunTime: 5000, RequestedTime: 6000, RequestedProcs: 40, Status: 1},
		{JobNumber: 2, SubmitTime: 0, RunTime: 7000, RequestedTime: 9000, RequestedProcs: 20, Status: 1},
	}
	for i := 3; len(jobs) < 1800; i++ {
		submit := int64(10)
		if i > 1500 {
			submit = 10 + int64(i-1500)*7 // a trickle while the burst drains
		}
		run := 1 + src.Int63n(900)
		procs := 1 + src.Int63n(maxProcs)
		jobs = append(jobs, swf.Job{
			JobNumber:      int64(i),
			SubmitTime:     submit,
			RunTime:        run,
			AllocatedProcs: procs,
			RequestedProcs: procs,
			RequestedTime:  run + src.Int63n(2*run),
			UserID:         int64(src.Intn(6)),
			Status:         1,
		})
	}
	w := &trace.Workload{Name: "burst", MaxProcs: maxProcs, Jobs: jobs}
	assertIdenticalSchedules(t, w, "burst",
		sim.Config{Policy: sched.NewEASY(sched.SJBFOrder), Predictor: predict.NewUserAverage(2), Corrector: correct.Incremental{}},
		sim.Config{Policy: sched.ReferenceEASY{Backfill: sched.SJBFOrder}, Predictor: predict.NewUserAverage(2), Corrector: correct.Incremental{}},
	)
}

// TestIncrementalMatchesReferenceOnPresets repeats the comparison on the
// realistic preset workloads the paper's evaluation uses.
func TestIncrementalMatchesReferenceOnPresets(t *testing.T) {
	for _, preset := range []string{"KTH-SP2", "Curie"} {
		cfg, err := workload.Scaled(preset, 400)
		if err != nil {
			t.Fatal(err)
		}
		w, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, pc := range predictorConfigs() {
			label := fmt.Sprintf("%s pred=%s sjbf", preset, pc.name)
			assertIdenticalSchedules(t, w, label,
				sim.Config{Policy: sched.NewEASY(sched.SJBFOrder), Predictor: pc.mk(), Corrector: pc.corr},
				sim.Config{Policy: sched.ReferenceEASY{Backfill: sched.SJBFOrder}, Predictor: pc.mk(), Corrector: pc.corr},
			)
			label = fmt.Sprintf("%s pred=%s conservative", preset, pc.name)
			assertIdenticalSchedules(t, w, label,
				sim.Config{Policy: sched.NewConservative(), Predictor: pc.mk(), Corrector: pc.corr},
				sim.Config{Policy: sched.ReferenceConservative{}, Predictor: pc.mk(), Corrector: pc.corr},
			)
		}
	}
}

// TestPolicyReuseAcrossRuns: reusing one policy instance for a second
// simulation must behave exactly like a fresh instance (the policy
// detects the machine swap and resets its incremental state).
func TestPolicyReuseAcrossRuns(t *testing.T) {
	w1, w2 := randomWorkload(101), randomWorkload(202)
	for _, mk := range []func() sched.Policy{
		func() sched.Policy { return sched.NewEASY(sched.SJBFOrder) },
		func() sched.Policy { return sched.NewConservative() },
	} {
		reused := mk()
		for _, w := range []*trace.Workload{w1, w2} {
			got, err := sim.Run(w, sim.Config{Policy: reused, Predictor: predict.NewUserAverage(2), Corrector: correct.Incremental{}})
			if err != nil {
				t.Fatalf("%s reused: %v", reused.Name(), err)
			}
			want, err := sim.Run(w, sim.Config{Policy: mk(), Predictor: predict.NewUserAverage(2), Corrector: correct.Incremental{}})
			if err != nil {
				t.Fatalf("%s fresh: %v", reused.Name(), err)
			}
			for i := range got.Jobs {
				if got.Jobs[i].Start != want.Jobs[i].Start {
					t.Fatalf("%s on %s: job %d start %d, fresh policy says %d",
						reused.Name(), w.Name, got.Jobs[i].ID, got.Jobs[i].Start, want.Jobs[i].Start)
				}
			}
		}
	}
}
