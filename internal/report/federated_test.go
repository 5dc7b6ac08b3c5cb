package report

import (
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
)

// TestFederatedTable checks the grouping structure: one block per
// workload, one sub-block per (federation, topology), triples as rows
// with a per-cluster column each.
func TestFederatedTable(t *testing.T) {
	row := func(w, triple string, tr core.Triple, ave float64) campaign.RunResult {
		return campaign.RunResult{
			Workload: w, Triple: tr, AVEbsld: ave, MeanWait: 120, Utilization: 0.7,
			Topology: "2x64", Routing: "least-loaded",
			Clusters: []campaign.ClusterMetrics{
				{Name: "alpha", Finished: 10, AVEbsld: ave},
				{Name: "beta", Finished: 20, AVEbsld: ave / 2},
			},
		}
	}
	got := FederatedTable([]campaign.RunResult{
		row("KTH-SP2", "easy", core.EASY(), 8.0),
		row("KTH-SP2", "easy++", core.EASYPlusPlus(), 4.0),
		row("CTC-SP2", "easy", core.EASY(), 6.0),
	})
	for _, want := range []string{
		"KTH-SP2:", "CTC-SP2:",
		"routing=least-loaded topology=2x64",
		"alpha", "beta",
		core.EASYPlusPlus().Name(),
		"4.0", "2.0 (20)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("table missing %q:\n%s", want, got)
		}
	}
	// Two workloads, each with one sub-block: the workload header must
	// not repeat for rows sharing a platform.
	if n := strings.Count(got, "KTH-SP2:"); n != 1 {
		t.Errorf("KTH-SP2 header appears %d times, want 1:\n%s", n, got)
	}
}
