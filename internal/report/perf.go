package report

import (
	"fmt"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/sim"
)

// PerfSummary renders the per-workload performance counters of a
// campaign: simulations run, events processed, policy Pick calls,
// aggregate simulation wall time and event throughput. Every campaign
// carries these counters through its results (and journal), so the
// summary doubles as a quick performance record of the engine on real
// grids — the same quantities the CI perf gate tracks via benchmarks.
// Profiled cells add the stage histograms, and federated cells the
// per-cluster split of events and Pick calls — so -perf tells both how
// hard the engine worked and where the routers sent that work.
func PerfSummary(results []campaign.RunResult) string {
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "Workload\tsims\tevents\tPick calls\tsim wall\tMev/s\t")
	var total sim.Perf
	var totalSims int
	row := func(name string, sims int, p sim.Perf) {
		rate := 0.0
		if p.WallNanos > 0 {
			rate = float64(p.Events) / (float64(p.WallNanos) / 1e9) / 1e6
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%s\t%.2f\t\n",
			name, sims, p.Events, p.PickCalls, p.Wall().Round(time.Millisecond), rate)
	}
	for _, name := range orderedWorkloads(results) {
		var agg sim.Perf
		sims := 0
		for _, r := range results {
			if r.Workload != name {
				continue
			}
			sims++
			agg.Events += r.Perf.Events
			agg.PickCalls += r.Perf.PickCalls
			agg.WallNanos += r.Perf.WallNanos
		}
		row(name, sims, agg)
		totalSims += sims
		total.Events += agg.Events
		total.PickCalls += agg.PickCalls
		total.WallNanos += agg.WallNanos
	}
	row("total", totalSims, total)
	tw.Flush()
	out := "Performance counters (per workload):\n" + b.String()
	if stages := stageSummary(results); stages != "" {
		out += "\n" + stages
	}
	if clusters := clusterSummary(results); clusters != "" {
		out += "\n" + clusters
	}
	return out
}

// stageSummary renders the per-stage latency histograms of a profiled
// campaign (campaign -perf on a profiling run), merged across every
// cell (obs.MergeStages). Unprofiled results render nothing, keeping
// historical -perf output byte-identical.
func stageSummary(results []campaign.RunResult) string {
	lists := make([][]obs.StagePerf, 0, len(results))
	for i := range results {
		if len(results[i].Perf.Stages) > 0 {
			lists = append(lists, results[i].Perf.Stages)
		}
	}
	if len(lists) == 0 {
		return ""
	}
	merged := obs.MergeStages(lists...)
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "Stage\tcalls\tmean ns\tp50 ns\tp90 ns\tp99 ns\tmax ns\t")
	for _, sp := range merged {
		mean := 0.0
		if sp.Count > 0 {
			mean = float64(sp.TotalNanos) / float64(sp.Count)
		}
		fmt.Fprintf(tw, "%s\t%d\t%.0f\t%.0f\t%.0f\t%.0f\t%d\t\n",
			sp.Stage, sp.Count, mean, sp.P50, sp.P90, sp.P99, sp.MaxNanos)
	}
	tw.Flush()
	return "Stage latency histograms (across cells; quantiles count-weighted):\n" + b.String()
}

// clusterSummary aggregates the per-cluster routed and finished jobs,
// events and Pick calls of federated cells across the grid, one row per
// (routing policy, cluster). Single-machine results render nothing.
func clusterSummary(results []campaign.RunResult) string {
	type key struct{ routing, cluster string }
	type agg struct {
		key
		routed, finished  int
		events, pickCalls int64
	}
	var order []key
	byKey := make(map[key]*agg)
	for i := range results {
		for _, cm := range results[i].Clusters {
			k := key{results[i].Routing, cm.Name}
			a := byKey[k]
			if a == nil {
				a = &agg{key: k}
				byKey[k] = a
				order = append(order, k)
			}
			a.routed += cm.Routed
			a.finished += cm.Finished
			a.events += cm.Events
			a.pickCalls += cm.PickCalls
		}
	}
	if len(order) == 0 {
		return ""
	}
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "Federation\tcluster\trouted\tfinished\tevents\tPick calls\t")
	for _, k := range order {
		a := byKey[k]
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\t\n",
			k.routing, k.cluster, a.routed, a.finished, a.events, a.pickCalls)
	}
	tw.Flush()
	return "Performance counters (per federation cluster, across cells):\n" + b.String()
}
