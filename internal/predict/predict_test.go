package predict

import (
	"testing"

	"repro/internal/job"
	"repro/internal/ml"
)

func j(id, user, procs, runtime, request int64) *job.Job {
	return &job.Job{ID: id, User: user, Procs: procs, Runtime: runtime, Request: request}
}

func TestClairvoyant(t *testing.T) {
	p := NewClairvoyant()
	if p.Name() != "Clairvoyant" {
		t.Fatal("name")
	}
	if got := p.Predict(j(1, 1, 1, 1234, 9999), 0); got != 1234 {
		t.Fatalf("Predict = %d, want actual runtime", got)
	}
}

func TestRequestedTime(t *testing.T) {
	p := NewRequestedTime()
	if p.Name() != "RequestedTime" {
		t.Fatal("name")
	}
	if got := p.Predict(j(1, 1, 1, 1234, 9999), 0); got != 9999 {
		t.Fatalf("Predict = %d, want request", got)
	}
}

func TestUserAverageFallsBackToRequest(t *testing.T) {
	p := NewUserAverage(2)
	if got := p.Predict(j(1, 7, 1, 100, 5000), 0); got != 5000 {
		t.Fatalf("no-history prediction = %d, want request 5000", got)
	}
}

func TestUserAverageAveragesLastTwo(t *testing.T) {
	p := NewUserAverage(2)
	p.OnFinish(j(1, 7, 1, 100, 5000), 10)
	if got := p.Predict(j(2, 7, 1, 0, 5000), 0); got != 100 {
		t.Fatalf("single-history prediction = %d, want 100", got)
	}
	p.OnFinish(j(2, 7, 1, 300, 5000), 20)
	if got := p.Predict(j(3, 7, 1, 0, 5000), 0); got != 200 {
		t.Fatalf("prediction = %d, want (100+300)/2", got)
	}
	// A third completion evicts the oldest.
	p.OnFinish(j(3, 7, 1, 500, 5000), 30)
	if got := p.Predict(j(4, 7, 1, 0, 5000), 0); got != 400 {
		t.Fatalf("prediction = %d, want (300+500)/2", got)
	}
}

func TestUserAverageIsolatesUsers(t *testing.T) {
	p := NewUserAverage(2)
	p.OnFinish(j(1, 7, 1, 100, 5000), 10)
	if got := p.Predict(j(2, 8, 1, 0, 7777), 0); got != 7777 {
		t.Fatalf("user 8 saw user 7's history: %d", got)
	}
}

func TestUserAverageName(t *testing.T) {
	if NewUserAverage(2).Name() != "AVE2" || NewUserAverage(3).Name() != "AVE3" {
		t.Fatal("names")
	}
}

func TestUserAverageInvalidK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k=0")
		}
	}()
	NewUserAverage(0)
}

func TestLearningLifecycle(t *testing.T) {
	p := NewLearning(ml.SquaredLoss)
	if p.Name() == "" {
		t.Fatal("empty name")
	}
	user := int64(3)
	// Train on a stable pattern: runtime always 600, request always 7200.
	for i := 0; i < 300; i++ {
		jj := j(int64(i+1), user, 4, 600, 7200)
		p.Predict(jj, int64(i*100))
		p.OnSubmit(jj, int64(i*100))
		p.OnStart(jj, int64(i*100))
		p.OnFinish(jj, int64(i*100+600))
	}
	probe := j(1000, user, 4, 600, 7200)
	got := p.Predict(probe, 100000)
	if got < 200 || got > 1800 {
		t.Fatalf("after 300 identical jobs, prediction = %d, want near 600", got)
	}
}

func TestLearningFeatureMapCleanup(t *testing.T) {
	p := NewLearning(ml.ELoss)
	jj := j(1, 1, 2, 60, 600)
	p.Predict(jj, 0)
	if len(p.pending) != 1 {
		t.Fatalf("feature table size %d after predict", len(p.pending))
	}
	p.OnFinish(jj, 100)
	if len(p.pending) != 0 {
		t.Fatal("features not released after finish")
	}
	// The next job takes the freed slot instead of a new one.
	p.Predict(j(2, 1, 2, 60, 600), 100)
	if len(p.slots) != 1 {
		t.Fatalf("%d slots after a finish and a predict, want 1", len(p.slots))
	}
}

// TestLearningReusedIDTrainsEachJob runs two overlapping jobs of one
// user for three rounds, once under distinct IDs and once under one
// shared ID. Learning must not tell the two runs apart: each job trains
// on its own features, and both count as running.
func TestLearningReusedIDTrainsEachJob(t *testing.T) {
	run := func(secondID int64) []int64 {
		p := NewLearning(ml.ELoss)
		var preds []int64
		now := int64(0)
		for round := 0; round < 3; round++ {
			a := j(1, 5, 4, 3000, 7200)
			b := j(secondID, 5, 16, 60, 600)
			for _, jj := range []*job.Job{a, b} {
				preds = append(preds, p.Predict(jj, now))
				p.OnSubmit(jj, now)
				jj.Start = now
				p.OnStart(jj, now)
				now += 30
			}
			now += b.Runtime
			p.OnFinish(b, now)
			now = a.Start + a.Runtime
			p.OnFinish(a, now)
			now += 100
		}
		return preds
	}
	distinct, shared := run(2), run(1)
	for i := range distinct {
		if distinct[i] != shared[i] {
			t.Fatalf("a reused ID changed the predictions:\n distinct IDs %v\n shared ID    %v", distinct, shared)
		}
	}
}

// TestLearningReleaseEmptiesTable: jobs canceled while queued are
// released instead of finished, and leave nothing behind.
func TestLearningReleaseEmptiesTable(t *testing.T) {
	var p Predictor = NewLearning(ml.ELoss)
	r, ok := p.(Releaser)
	if !ok {
		t.Fatal("Learning does not implement Releaser")
	}
	jobs := make([]*job.Job, 1000)
	for i := range jobs {
		jobs[i] = j(int64(i+1), int64(i%7), 2, 60, 600)
		p.Predict(jobs[i], int64(i))
		p.OnSubmit(jobs[i], int64(i))
	}
	for _, jj := range jobs {
		r.Release(jj)
	}
	l := p.(*Learning)
	if len(l.pending) != 0 {
		t.Fatalf("%d feature vectors left after releasing every job", len(l.pending))
	}
	if len(l.free) != len(l.slots) {
		t.Fatalf("%d of %d slots free after releasing every job", len(l.free), len(l.slots))
	}
	r.Release(jobs[0]) // a second release is a no-op
	if len(l.free) != len(l.slots) {
		t.Fatal("a repeated release freed a slot twice")
	}
}

func TestLearningFinishWithoutPredict(t *testing.T) {
	// A finish without a remembered prediction (defensive path) must not
	// panic and must still update the tracker.
	p := NewLearning(ml.ELoss)
	p.OnFinish(j(1, 1, 2, 60, 600), 100)
}
