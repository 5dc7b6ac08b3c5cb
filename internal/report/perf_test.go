package report

import (
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

func TestPerfSummary(t *testing.T) {
	results := []campaign.RunResult{
		{Workload: "KTH-SP2", Triple: core.EASY(), Perf: sim.Perf{Events: 1000, PickCalls: 500, WallNanos: 2e9}},
		{Workload: "KTH-SP2", Triple: core.EASYPlusPlus(), Perf: sim.Perf{Events: 3000, PickCalls: 700, WallNanos: 1e9}},
		{Workload: "Curie", Triple: core.EASY(), Perf: sim.Perf{Events: 10, PickCalls: 5, WallNanos: 1e6}},
	}
	out := PerfSummary(results)
	for _, want := range []string{"KTH-SP2", "Curie", "total", "4000", "1205", "Pick calls"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	// KTH-SP2 comes before Curie (Table-4 row order), and totals last.
	if strings.Index(out, "KTH-SP2") > strings.Index(out, "Curie") {
		t.Error("workloads out of Table-4 order")
	}
	// Zero wall time must not divide by zero.
	if out := PerfSummary([]campaign.RunResult{{Workload: "X", Triple: core.EASY()}}); !strings.Contains(out, "0.00") {
		t.Errorf("zero-wall summary malformed:\n%s", out)
	}
	// Unprofiled results must not grow a stage table: -perf output on
	// historical journals stays unchanged.
	if strings.Contains(out, "Stage latency") {
		t.Errorf("unprofiled summary grew a stage table:\n%s", out)
	}
}

func TestPerfSummaryStageHistograms(t *testing.T) {
	prof := obs.NewStageProfile()
	for i := 1; i <= 100; i++ {
		prof.Observe(obs.StagePop, int64(i))
		prof.Observe(obs.StagePick, int64(10*i))
	}
	results := []campaign.RunResult{
		{Workload: "KTH-SP2", Triple: core.EASY(),
			Perf: sim.Perf{Events: 100, PickCalls: 100, WallNanos: 1e6, Stages: prof.Summaries()}},
		{Workload: "KTH-SP2", Triple: core.EASYPlusPlus(),
			Perf: sim.Perf{Events: 50, PickCalls: 25, WallNanos: 1e6}},
	}
	out := PerfSummary(results)
	for _, want := range []string{"Stage latency histograms", "eventq-pop", "pick", "p50 ns", "p99 ns"} {
		if !strings.Contains(out, want) {
			t.Errorf("stage summary missing %q:\n%s", want, out)
		}
	}
	// The pop stage observed 1..100 ns: count 100, max 100.
	if !strings.Contains(out, "100") {
		t.Errorf("stage summary missing pop counts:\n%s", out)
	}
}

// TestFederatedPerfSummary: federated cells add the per-cluster split
// of events and Pick calls, aggregated across cells, to PerfSummary.
func TestFederatedPerfSummary(t *testing.T) {
	results := []campaign.RunResult{
		{
			Workload: "KTH-SP2", Triple: core.EASY(), Perf: sim.Perf{Events: 900, PickCalls: 400, WallNanos: 1e9},
			Routing: "round-robin",
			Clusters: []campaign.ClusterMetrics{
				{Name: "c0", Routed: 60, Finished: 58, Events: 500, PickCalls: 220},
				{Name: "c1", Routed: 40, Finished: 40, Events: 400, PickCalls: 180},
			},
		},
		{
			Workload: "KTH-SP2", Triple: core.EASYPlusPlus(), Perf: sim.Perf{Events: 1100, PickCalls: 600, WallNanos: 1e9},
			Routing: "round-robin",
			Clusters: []campaign.ClusterMetrics{
				{Name: "c0", Routed: 60, Finished: 60, Events: 600, PickCalls: 330},
				{Name: "c1", Routed: 40, Finished: 38, Events: 500, PickCalls: 270},
			},
		},
	}
	out := PerfSummary(results)
	for _, want := range []string{
		"Performance counters (per workload)",
		"Performance counters (per federation cluster",
		"round-robin", "c0", "c1",
		// Aggregated across the two cells: c0 events 1100, picks 550;
		// c1 events 900, picks 450; routed 120/80.
		"1100", "550", "900", "450", "120", "80",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("federated summary missing %q:\n%s", want, out)
		}
	}
	// No clusters recorded (single-machine cells, or old journals without
	// per-cluster counters): the flat table alone.
	bare := PerfSummary([]campaign.RunResult{{Workload: "X", Triple: core.EASY()}})
	if strings.Contains(bare, "per federation cluster") {
		t.Errorf("clusterless summary grew a cluster table:\n%s", bare)
	}
}
