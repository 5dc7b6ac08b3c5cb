// Resume/cancellation/partial-failure behavior of the grid executor,
// exercised through the exported API (external test package: the
// equivalence assertions render report tables, and report imports
// campaign).
package campaign_test

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/correct"
	"repro/internal/ml"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/workload"
)

func testTriples() []core.Triple {
	return []core.Triple{
		core.EASY(),
		core.ClairvoyantEASY(),
		core.ClairvoyantSJBF(),
		core.EASYPlusPlus(),
		core.PaperBest(),
		{Predictor: core.PredLearning, Loss: ml.SquaredLoss, Corrector: correct.Incremental{}, Backfill: sched.FCFSOrder},
	}
}

func testWorkloads(t *testing.T, jobs int, names ...string) []*trace.Workload {
	t.Helper()
	var out []*trace.Workload
	for _, n := range names {
		cfg, err := workload.Scaled(n, jobs)
		if err != nil {
			t.Fatal(err)
		}
		w, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, w)
	}
	return out
}

// tables renders the report output the equivalence property is stated
// over: an interrupted-then-resumed campaign must reproduce these
// byte-identically.
func tables(results []campaign.RunResult) string {
	return report.Table1(results) + "\n" + report.Table6(results)
}

// TestResumeEquivalence is the tentpole property: run a campaign to
// completion; run the same campaign again but cancel it mid-grid while
// journaling, then resume from the journal; the resumed run's report
// tables must be byte-identical to the uninterrupted run's.
func TestResumeEquivalence(t *testing.T) {
	const jobs = 300
	names := []string{"KTH-SP2", "CTC-SP2"}
	triples := testTriples()
	path := filepath.Join(t.TempDir(), "grid.jsonl")

	// Uninterrupted reference run.
	ref := &campaign.Campaign{Workloads: testWorkloads(t, jobs, names...), Triples: triples, Seed: 7}
	want, err := ref.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantTables := tables(want)

	// Interrupted run: cancel once a few cells have completed. Workers
	// may finish in-flight cells after the cancel — that is the point:
	// everything completed must be journaled, everything else re-run.
	j, err := campaign.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	interrupted := &campaign.Campaign{
		Workloads: testWorkloads(t, jobs, names...),
		Triples:   triples,
		Seed:      7,
		Journal:   j,
		Progress: func(done, total int) {
			if done >= 3 {
				once.Do(cancel)
			}
		},
	}
	partial, err := interrupted.Run(ctx)
	if err == nil {
		t.Fatal("cancelled campaign reported success")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled campaign error = %v, want context.Canceled in the join", err)
	}
	if len(partial) == 0 || len(partial) >= len(want) {
		t.Fatalf("interrupted run completed %d cells, want some but not all of %d", len(partial), len(want))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume: journaled cells must be skipped, not recomputed.
	done, dropped, err := campaign.LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if dropped {
		t.Fatal("clean journal reported a dropped line")
	}
	if len(done) != len(partial) {
		t.Fatalf("journal holds %d cells, interrupted run completed %d", len(done), len(partial))
	}
	j2, err := campaign.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	resumed := &campaign.Campaign{
		Workloads: testWorkloads(t, jobs, names...),
		Triples:   triples,
		Seed:      7,
		Journal:   j2,
		Resume:    done,
	}
	got, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("resumed run returned %d cells, want %d", len(got), len(want))
	}
	if gotTables := tables(got); gotTables != wantTables {
		t.Errorf("resumed tables differ from uninterrupted run:\n--- want ---\n%s\n--- got ---\n%s", wantTables, gotTables)
	}

	// The completed journal now covers the whole grid; a second resume
	// simulates nothing.
	done, _, err = campaign.LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != len(want) {
		t.Fatalf("final journal holds %d distinct cells, want %d", len(done), len(want))
	}
	replay := &campaign.Campaign{
		Workloads: testWorkloads(t, jobs, names...),
		Triples:   triples,
		Seed:      7,
		Resume:    done,
	}
	got2, err := replay.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if gotTables := tables(got2); gotTables != wantTables {
		t.Error("journal-only replay tables differ from uninterrupted run")
	}
}

// TestResumeIgnoresForeignJournal: records from a grid with a different
// base seed (hence different derived cell seeds) must not satisfy a
// resume.
func TestResumeIgnoresForeignJournal(t *testing.T) {
	ws := testWorkloads(t, 200, "KTH-SP2")
	triples := []core.Triple{core.EASY(), core.EASYPlusPlus()}
	path := filepath.Join(t.TempDir(), "grid.jsonl")

	j, err := campaign.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	first := &campaign.Campaign{Workloads: ws, Triples: triples, Seed: 1, Journal: j}
	if _, err := first.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	j.Close()

	done, _, err := campaign.LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	// Progress may be called from worker goroutines concurrently.
	var ran atomic.Int64
	second := &campaign.Campaign{
		Workloads: testWorkloads(t, 200, "KTH-SP2"),
		Triples:   triples,
		Seed:      2, // different base seed: the journal must be ignored
		Resume:    done,
		Progress:  func(d, tot int) { ran.Add(1) },
	}
	if _, err := second.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ran := ran.Load(); ran != int64(len(triples)) {
		t.Fatalf("settled %d cells, want all %d re-run under a different seed", ran, len(triples))
	}
}

// TestPartialFailureReturnsCompletedCells: one broken workload must not
// throw away the other workloads' completed cells.
func TestPartialFailureReturnsCompletedCells(t *testing.T) {
	ws := testWorkloads(t, 200, "KTH-SP2", "CTC-SP2")
	// Shrink the second machine so every one of its cells fails setup.
	ws[1].MaxProcs = 1
	triples := []core.Triple{core.EASY(), core.EASYPlusPlus()}
	c := &campaign.Campaign{Workloads: ws, Triples: triples}
	results, err := c.Run(context.Background())
	if err == nil {
		t.Fatal("campaign with a broken workload reported success")
	}
	if !strings.Contains(err.Error(), "wider") {
		t.Fatalf("joined error does not name the cause: %v", err)
	}
	if len(results) != len(triples) {
		t.Fatalf("got %d completed cells, want the %d from the healthy workload", len(results), len(triples))
	}
	for _, r := range results {
		if r.Workload != "KTH-SP2" {
			t.Errorf("completed cell from broken workload: %+v", r)
		}
	}
}

// TestRobustnessResume: the disruption sweep shares the executor, so it
// resumes the same way — and the resumed cells keep their script
// summaries (drain/cancel counts).
func TestRobustnessResume(t *testing.T) {
	const jobs = 250
	triples := []core.Triple{core.EASY(), core.PaperBest()}
	path := filepath.Join(t.TempDir(), "rgrid.jsonl")

	ref := &campaign.Robustness{Workloads: testWorkloads(t, jobs, "CTC-SP2"), Triples: triples, Seed: 3}
	want, err := ref.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantTable := report.RobustnessTable(want)

	j, err := campaign.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	interrupted := &campaign.Robustness{
		Workloads: testWorkloads(t, jobs, "CTC-SP2"),
		Triples:   triples,
		Seed:      3,
		Journal:   j,
		Progress: func(done, total int) {
			if done >= 2 {
				once.Do(cancel)
			}
		},
	}
	if _, err := interrupted.Run(ctx); err == nil {
		t.Fatal("cancelled sweep reported success")
	}
	j.Close()

	done, _, err := campaign.LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) == 0 {
		t.Fatal("nothing journaled before cancellation")
	}
	resumed := &campaign.Robustness{
		Workloads: testWorkloads(t, jobs, "CTC-SP2"),
		Triples:   triples,
		Seed:      3,
		Resume:    done,
	}
	got, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if gotTable := report.RobustnessTable(got); gotTable != wantTable {
		t.Errorf("resumed robustness table differs:\n--- want ---\n%s\n--- got ---\n%s", wantTable, gotTable)
	}
}
