package report

import (
	"context"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/correct"
	"repro/internal/ml"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/workload"
)

func testResults(t *testing.T) []campaign.RunResult {
	t.Helper()
	triples := []core.Triple{
		core.EASY(),
		core.ClairvoyantEASY(),
		core.ClairvoyantSJBF(),
		core.EASYPlusPlus(),
		core.PaperBest(),
		{Predictor: core.PredLearning, Loss: ml.SquaredLoss, Corrector: correct.Incremental{}, Backfill: sched.FCFSOrder},
	}
	var ws []*trace.Workload
	for _, n := range []string{"KTH-SP2", "CTC-SP2"} {
		cfg, err := workload.Scaled(n, 400)
		if err != nil {
			t.Fatal(err)
		}
		w, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	c := &campaign.Campaign{Workloads: ws, Triples: triples}
	results, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return results
}

func TestTable1(t *testing.T) {
	out := Table1(testResults(t))
	if !strings.Contains(out, "KTH-SP2") || !strings.Contains(out, "CTC-SP2") {
		t.Fatalf("Table 1 missing logs:\n%s", out)
	}
	if !strings.Contains(out, "EASY-Clairvoyant") {
		t.Fatalf("Table 1 missing header:\n%s", out)
	}
	if !strings.Contains(out, "%)") {
		t.Fatalf("Table 1 missing reduction percentages:\n%s", out)
	}
}

func TestTable6(t *testing.T) {
	out := Table6(testResults(t))
	for _, col := range []string{"ClairFCFS", "ClairSJBF", "EASY", "EASY++", "ML-FCFS", "ML-SJBF"} {
		if !strings.Contains(out, col) {
			t.Fatalf("Table 6 missing column %s:\n%s", col, out)
		}
	}
	if !strings.Contains(out, " - ") {
		t.Fatalf("Table 6 missing min-max ranges:\n%s", out)
	}
}

func TestTable7(t *testing.T) {
	results := testResults(t)
	cv, err := campaign.LeaveOneOut(results)
	if err != nil {
		t.Fatal(err)
	}
	out := Table7(cv, results)
	if !strings.Contains(out, "C-V triple") {
		t.Fatalf("Table 7 header missing:\n%s", out)
	}
	if !strings.Contains(out, "KTH-SP2") {
		t.Fatalf("Table 7 missing rows:\n%s", out)
	}
	if !strings.Contains(out, "Average AVEbsld reduction of the C-V triple: ") {
		t.Fatalf("Table 7 missing the headline line:\n%s", out)
	}
}

func TestFigure3(t *testing.T) {
	out := Figure3(testResults(t), "KTH-SP2", "CTC-SP2")
	if !strings.Contains(out, "Pearson(KTH-SP2, CTC-SP2)") {
		t.Fatalf("Figure 3 missing Pearson:\n%s", out)
	}
	if !strings.Contains(out, "EASY-SJBF/Clairvoyant") {
		t.Fatalf("Figure 3 missing triples:\n%s", out)
	}
}

func TestPredictionAnalysisAndFigures(t *testing.T) {
	cfg, err := workload.Scaled("Curie", 800)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	series, err := AnalyzePredictions(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 5 {
		t.Fatalf("got %d series, want 5 (4 techniques + actual)", len(series))
	}
	if series[4].Name != "Actual value" || len(series[4].Errors) != 0 {
		t.Fatalf("last series should be the actual-value reference: %+v", series[4].Name)
	}
	for _, s := range series[:4] {
		if len(s.Errors) != len(w.Jobs) {
			t.Errorf("%s: %d errors for %d jobs", s.Name, len(s.Errors), len(w.Jobs))
		}
	}

	// Requested Time never under-predicts (runtime <= request), so its
	// error ECDF at 0- should be ~0 while AVE2's is substantial.
	var reqUnder, aveUnder int
	for i, e := range series[0].Errors {
		if e < 0 {
			reqUnder++
		}
		if series[1].Errors[i] < 0 {
			aveUnder++
		}
	}
	if reqUnder != 0 {
		t.Errorf("Requested Time under-predicted %d jobs", reqUnder)
	}
	if aveUnder == 0 {
		t.Error("AVE2 never under-predicted — locality model broken?")
	}

	t8 := Table8(series)
	if !strings.Contains(t8, "Mean E-Loss") || !strings.Contains(t8, "E-Loss Regression") {
		t.Fatalf("Table 8 malformed:\n%s", t8)
	}
	f4 := Figure4(series)
	if !strings.Contains(f4, "err(h)") || !strings.Contains(f4, "-24") {
		t.Fatalf("Figure 4 malformed:\n%s", f4)
	}
	f5 := Figure5(series)
	if !strings.Contains(f5, "Actual value") {
		t.Fatalf("Figure 5 malformed:\n%s", f5)
	}
}

func TestReductionHelper(t *testing.T) {
	if got := reduction(100, 72); got != 28 {
		t.Fatalf("reduction = %v, want 28", got)
	}
	if got := reduction(0, 10); got != 0 {
		t.Fatalf("reduction from 0 = %v, want 0", got)
	}
}
