package report

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/ml"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// PredictionSeries holds one technique's submission-time predictions over
// a workload, in the two views Figures 4 and 5 plot: signed errors
// (pred − actual, seconds) and the raw predicted values (seconds).
type PredictionSeries struct {
	Name      string
	Errors    []float64
	Predicted []float64
	MAE       float64
	MeanELoss float64
}

// AnalyzePredictions simulates the workload under EASY-SJBF with
// Incremental correction for each of the four prediction techniques the
// paper analyzes on the Curie log (Requested Time, AVE2, symmetric
// squared-loss regression, E-Loss regression) and collects their
// submission-time predictions. The "Actual value" series of Figure 5 is
// returned last, with empty Errors.
func AnalyzePredictions(w *trace.Workload) ([]PredictionSeries, error) {
	techniques := []struct {
		name   string
		triple core.Triple
	}{
		{"Requested Time", core.Triple{Predictor: core.PredRequested, Backfill: sched.SJBFOrder}},
		{"AVE2", core.EASYPlusPlus()},
		{"Squared Loss Regression", func() core.Triple {
			t := core.PaperBest()
			t.Loss = ml.SquaredLoss
			return t
		}()},
		{"E-Loss Regression", core.PaperBest()},
	}
	var out []PredictionSeries
	for _, tech := range techniques {
		res, err := sim.Run(w, tech.triple.Config())
		if err != nil {
			return nil, fmt.Errorf("report: %s on %s: %w", tech.name, w.Name, err)
		}
		s := PredictionSeries{
			Name:      tech.name,
			MAE:       metrics.MAE(res.Jobs),
			MeanELoss: metrics.MeanELoss(res.Jobs),
		}
		s.Errors = metrics.PredictionError(res.Jobs)
		for _, j := range res.Jobs {
			s.Predicted = append(s.Predicted, float64(j.SubmitPrediction))
		}
		out = append(out, s)
	}
	actual := PredictionSeries{Name: "Actual value"}
	for i := range w.Jobs {
		actual.Predicted = append(actual.Predicted, float64(w.Jobs[i].RunTime))
	}
	out = append(out, actual)
	return out, nil
}

// Table8 renders the MAE / mean E-Loss comparison of the paper's Table 8
// (AVE2 vs the E-Loss learner; the other techniques are shown for
// context).
func Table8(series []PredictionSeries) string {
	var b strings.Builder
	b.WriteString("Table 8: prediction error of the techniques (seconds)\n")
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Prediction Technique\tMAE\tMean E-Loss\t")
	for _, s := range series {
		if len(s.Errors) == 0 {
			continue
		}
		fmt.Fprintf(tw, "%s\t%.0f\t%.3g\t\n", s.Name, s.MAE, s.MeanELoss)
	}
	tw.Flush()
	return b.String()
}

// Figure4 renders the ECDF of prediction errors sampled hourly over
// [-24h, +24h], the series of the paper's Figure 4.
func Figure4(series []PredictionSeries) string {
	var b strings.Builder
	b.WriteString("Figure 4: ECDF of prediction errors (hours)\n")
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "err(h)\t")
	var cdfs []*metrics.ECDF
	for _, s := range series {
		if len(s.Errors) == 0 {
			continue
		}
		fmt.Fprintf(tw, "%s\t", s.Name)
		cdfs = append(cdfs, metrics.NewECDF(s.Errors))
	}
	fmt.Fprintln(tw)
	for h := -24; h <= 24; h += 2 {
		fmt.Fprintf(tw, "%d\t", h)
		for _, c := range cdfs {
			fmt.Fprintf(tw, "%.3f\t", c.At(float64(h)*3600))
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	return b.String()
}

// Figure5 renders the ECDF of predicted values sampled over [0, 24h]
// (including the actual-runtime reference curve), the paper's Figure 5.
func Figure5(series []PredictionSeries) string {
	var b strings.Builder
	b.WriteString("Figure 5: ECDF of predicted values (hours)\n")
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "pred(h)\t")
	var cdfs []*metrics.ECDF
	for _, s := range series {
		fmt.Fprintf(tw, "%s\t", s.Name)
		cdfs = append(cdfs, metrics.NewECDF(s.Predicted))
	}
	fmt.Fprintln(tw)
	for h := 0; h <= 24; h++ {
		fmt.Fprintf(tw, "%d\t", h)
		for _, c := range cdfs {
			fmt.Fprintf(tw, "%.3f\t", c.At(float64(h)*3600))
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	return b.String()
}
