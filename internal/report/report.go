// Package report renders the paper's tables and figure series from
// campaign results: Table 1 (clairvoyant gain), Table 6 (campaign
// overview), Table 7 (cross-validation), Table 8 (prediction metrics),
// Figure 3 (cross-log scatter + Pearson), Figures 4 and 5 (prediction
// ECDFs). Output is plain text suitable for terminals and for diffing in
// EXPERIMENTS.md.
package report

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"text/tabwriter"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/stats"
)

// logOrder replicates the paper's Table-4 row order.
var logOrder = []string{"KTH-SP2", "CTC-SP2", "SDSC-SP2", "SDSC-BLUE", "Curie", "Metacentrum"}

// orderedWorkloads returns the workload names present in the results in
// Table-4 order, with unknown names appended alphabetically.
func orderedWorkloads(results []campaign.RunResult) []string {
	present := map[string]bool{}
	for _, r := range results {
		present[r.Workload] = true
	}
	var out []string
	for _, n := range logOrder {
		if present[n] {
			out = append(out, n)
			delete(present, n)
		}
	}
	var rest []string
	for n := range present {
		rest = append(rest, n)
	}
	sort.Strings(rest)
	return append(out, rest...)
}

func find(results []campaign.RunResult, workload string, match func(core.Triple) bool) (campaign.RunResult, bool) {
	for _, r := range results {
		if r.Workload == workload && match(r.Triple) {
			return r, true
		}
	}
	return campaign.RunResult{}, false
}

func sameTriple(want core.Triple) func(core.Triple) bool {
	name := want.Name()
	return func(t core.Triple) bool { return t.Name() == name }
}

// Table1 renders "AVEbsld of EASY vs EASY-Clairvoyant" with the
// percentage decrease, as in the paper's Table 1.
func Table1(results []campaign.RunResult) string {
	var b strings.Builder
	b.WriteString("Table 1: AVEbsld of EASY (requested times) vs EASY-Clairvoyant (actual runtimes)\n")
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Log\tEASY\tEASY-Clairvoyant\t")
	for _, w := range orderedWorkloads(results) {
		easy, ok1 := find(results, w, sameTriple(core.EASY()))
		clair, ok2 := find(results, w, sameTriple(core.ClairvoyantEASY()))
		if !ok1 || !ok2 {
			continue
		}
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f (%.0f%%)\t\n",
			w, easy.AVEbsld, clair.AVEbsld, reduction(easy.AVEbsld, clair.AVEbsld))
	}
	tw.Flush()
	return b.String()
}

// reduction returns the percentage decrease from base to v.
func reduction(base, v float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (base - v) / base
}

// Table6 renders the campaign overview: the clairvoyant FCFS/SJBF bounds,
// EASY, EASY++, and the min–max AVEbsld over the learning triples per
// backfill order, as in the paper's Table 6.
func Table6(results []campaign.RunResult) string {
	var b strings.Builder
	b.WriteString("Table 6: AVEbsld overview (learning columns show best - worst over losses x corrections)\n")
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Trace\tClairFCFS\tClairSJBF\tEASY\tEASY++\tML-FCFS\tML-SJBF\t")
	for _, w := range orderedWorkloads(results) {
		clairF, _ := find(results, w, sameTriple(core.ClairvoyantEASY()))
		clairS, _ := find(results, w, sameTriple(core.ClairvoyantSJBF()))
		easy, _ := find(results, w, sameTriple(core.EASY()))
		easyPP, _ := find(results, w, sameTriple(core.EASYPlusPlus()))
		minF, maxF := learningRange(results, w, false)
		minS, maxS := learningRange(results, w, true)
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f - %.1f\t%.1f - %.1f\t\n",
			w, clairF.AVEbsld, clairS.AVEbsld, easy.AVEbsld, easyPP.AVEbsld,
			minF, maxF, minS, maxS)
	}
	tw.Flush()
	return b.String()
}

// learningRange returns the (min, max) AVEbsld over the learning triples
// with the given backfill order.
func learningRange(results []campaign.RunResult, workload string, sjbf bool) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, r := range results {
		if r.Workload != workload || r.Triple.Predictor != core.PredLearning {
			continue
		}
		if (r.Triple.Backfill.String() == "SJBF") != sjbf {
			continue
		}
		if r.AVEbsld < lo {
			lo = r.AVEbsld
		}
		if r.AVEbsld > hi {
			hi = r.AVEbsld
		}
	}
	if math.IsInf(lo, 1) {
		return 0, 0
	}
	return lo, hi
}

// Table7 renders the cross-validation outcome against the EASY and
// EASY++ baselines, as in the paper's Table 7, followed by the paper's
// headline claim: the C-V triple's AVEbsld reduction against each
// baseline, averaged over the held-out logs (28% and 11% in the paper).
func Table7(cv []campaign.CrossValidation, results []campaign.RunResult) string {
	var b strings.Builder
	b.WriteString("Table 7: AVEbsld of the cross-validated heuristic triple (reduction vs EASY in parentheses)\n")
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Log\tC-V triple\tEASY\tEASY++\tSelected\t")
	byHeld := map[string]campaign.CrossValidation{}
	for _, c := range cv {
		byHeld[c.HeldOut] = c
	}
	for _, w := range orderedWorkloads(results) {
		c, ok := byHeld[w]
		if !ok {
			continue
		}
		easy, _ := find(results, w, sameTriple(core.EASY()))
		easyPP, _ := find(results, w, sameTriple(core.EASYPlusPlus()))
		fmt.Fprintf(tw, "%s\t%.1f (%.0f%%)\t%.1f\t%.1f (%.0f%%)\t%s\t\n",
			w, c.Score, reduction(easy.AVEbsld, c.Score),
			easy.AVEbsld,
			easyPP.AVEbsld, reduction(easy.AVEbsld, easyPP.AVEbsld),
			c.Selected.Name())
	}
	tw.Flush()
	var sumEASY, sumPP float64
	n := 0
	for _, c := range cv {
		easy, ok1 := find(results, c.HeldOut, sameTriple(core.EASY()))
		easyPP, ok2 := find(results, c.HeldOut, sameTriple(core.EASYPlusPlus()))
		if !ok1 || !ok2 || easy.AVEbsld == 0 || easyPP.AVEbsld == 0 {
			continue
		}
		sumEASY += reduction(easy.AVEbsld, c.Score)
		sumPP += reduction(easyPP.AVEbsld, c.Score)
		n++
	}
	if n > 0 {
		fmt.Fprintf(&b, "Average AVEbsld reduction of the C-V triple: %.0f%% vs EASY, %.0f%% vs EASY++ (paper: 28%% and 11%%)\n",
			sumEASY/float64(n), sumPP/float64(n))
	}
	return b.String()
}

// Figure3 renders the cross-log scatter of triple AVEbsld (x = logX,
// y = logY) plus the Pearson correlation over every pair of logs, as in
// the paper's Figure 3 and Section 6.3.2.
func Figure3(results []campaign.RunResult, logX, logY string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: heuristic-triple AVEbsld scatter, %s (x) vs %s (y)\n", logX, logY)
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\t%s\tTriple\t\n", logX, logY)
	byW := campaign.ByWorkload(results)
	xs, ys := map[string]float64{}, map[string]float64{}
	for _, r := range byW[logX] {
		xs[r.Triple.Name()] = r.AVEbsld
	}
	for _, r := range byW[logY] {
		ys[r.Triple.Name()] = r.AVEbsld
	}
	var names []string
	for n := range xs {
		if _, ok := ys[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	var xv, yv []float64
	for _, n := range names {
		fmt.Fprintf(tw, "%.1f\t%.1f\t%s\t\n", xs[n], ys[n], n)
		xv = append(xv, xs[n])
		yv = append(yv, ys[n])
	}
	tw.Flush()
	if r, err := stats.Pearson(xv, yv); err == nil {
		fmt.Fprintf(&b, "Pearson(%s, %s) = %.2f\n", logX, logY, r)
	}
	b.WriteString(pearsonMatrix(results))
	return b.String()
}

// pearsonMatrix computes the Pearson coefficient between every pair of
// logs over the shared triples, reporting mean/min/max as in the paper
// ("with a mean of 0.26 (min 0.01, max 0.80)").
func pearsonMatrix(results []campaign.RunResult) string {
	byW := campaign.ByWorkload(results)
	names := orderedWorkloads(results)
	var coefs []float64
	var b strings.Builder
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			a, c := byW[names[i]], byW[names[j]]
			am := map[string]float64{}
			for _, r := range a {
				am[r.Triple.Name()] = r.AVEbsld
			}
			var xv, yv []float64
			for _, r := range c {
				if x, ok := am[r.Triple.Name()]; ok {
					xv = append(xv, x)
					yv = append(yv, r.AVEbsld)
				}
			}
			r, err := stats.Pearson(xv, yv)
			if err != nil {
				continue
			}
			coefs = append(coefs, math.Abs(r))
			fmt.Fprintf(&b, "  Pearson(%s, %s) = %.2f\n", names[i], names[j], r)
		}
	}
	if len(coefs) > 0 {
		lo, hi := stats.MinMax(coefs)
		fmt.Fprintf(&b, "  |Pearson| mean %.2f (min %.2f, max %.2f)\n", stats.Mean(coefs), lo, hi)
	}
	return b.String()
}
