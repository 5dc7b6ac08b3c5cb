package campaign_test

import (
	"context"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/report"
)

func testFederations() []campaign.Federation {
	return []campaign.Federation{
		{Routing: "round-robin", Clusters: []platform.Cluster{{Procs: 100}, {Procs: 100}}},
		{Routing: "least-loaded", Clusters: []platform.Cluster{
			{Name: "big", Procs: 100}, {Name: "slow", Procs: 64, Speed: 0.5},
		}},
	}
}

// TestFederatedCampaignGrid runs a small workloads x federations x
// triples grid and checks the result shape: grid order, per-cluster
// splits consistent with the global counters, and the rendered table.
func TestFederatedCampaignGrid(t *testing.T) {
	c := &campaign.Campaign{
		Workloads:   testWorkloads(t, 200, "KTH-SP2"),
		Federations: testFederations(),
		Triples:     []core.Triple{core.EASY(), core.EASYPlusPlus()},
		Seed:        3,
	}
	results, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1*2*2 {
		t.Fatalf("got %d results, want 4", len(results))
	}
	for i, r := range results {
		wantFed := testFederations()[(i/2)%2]
		if r.Routing != wantFed.Routing {
			t.Fatalf("result %d routing %q, want %q (grid order broken)", i, r.Routing, wantFed.Routing)
		}
		if r.Topology == "" || len(r.Clusters) != 2 {
			t.Fatalf("result %d missing platform identity: %+v", i, r)
		}
		finished := 0
		for _, cm := range r.Clusters {
			finished += cm.Finished
		}
		if finished == 0 {
			t.Fatalf("result %d: no cluster finished any job", i)
		}
	}
	table := report.FederatedTable(results)
	for _, want := range []string{"KTH-SP2", "routing=round-robin", "routing=least-loaded", "topology=100+64x0.5", "big", "slow"} {
		if !strings.Contains(table, want) {
			t.Fatalf("federated table missing %q:\n%s", want, table)
		}
	}
}

// TestFederatedResumeEquivalence journals a federated grid, then re-runs
// it entirely from the journal: the resumed run must recompute nothing
// and render byte-identical tables.
func TestFederatedResumeEquivalence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fed.jsonl")
	build := func(j *campaign.Journal, resume map[string]campaign.CellRecord) *campaign.Campaign {
		return &campaign.Campaign{
			Workloads:   testWorkloads(t, 200, "KTH-SP2"),
			Federations: testFederations(),
			Triples:     []core.Triple{core.EASY(), core.PaperBest()},
			Seed:        11,
			Journal:     j,
			Resume:      resume,
		}
	}

	j, err := campaign.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := build(j, nil).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	done, dropped, err := campaign.LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if dropped {
		t.Fatal("journal unexpectedly truncated")
	}
	if len(done) != len(want) {
		t.Fatalf("journal holds %d cells, want %d", len(done), len(want))
	}

	recomputed := 0
	c := build(nil, done)
	c.Progress = func(doneN, total int) { recomputed = total } // called for skips too
	got, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if recomputed != len(want) {
		t.Fatalf("progress saw total %d, want %d", recomputed, len(want))
	}
	if report.FederatedTable(got) != report.FederatedTable(want) {
		t.Fatalf("resumed federated tables differ:\n%s\nvs\n%s",
			report.FederatedTable(got), report.FederatedTable(want))
	}
}

// TestFederatedCellKeysDisjoint pins journal-key hygiene: the same
// (workload, triple, seed) cell under two different federations — or
// under none — must never collide in a shared journal.
func TestFederatedCellKeysDisjoint(t *testing.T) {
	base := campaign.CellRecord{Kind: "campaign", Workload: "w", JobCount: 10, Triple: "t", Seed: 5}
	fedA := base
	fedA.Federation, fedA.Topology = "round-robin", "100+100"
	fedB := base
	fedB.Federation, fedB.Topology = "least-loaded", "100+100"
	keys := map[string]bool{base.Key(): true, fedA.Key(): true, fedB.Key(): true}
	if len(keys) != 3 {
		t.Fatalf("cell keys collide: %q %q %q", base.Key(), fedA.Key(), fedB.Key())
	}
	if !strings.HasPrefix(fedA.Key(), base.Key()) {
		t.Fatalf("federated key %q does not extend the legacy key %q", fedA.Key(), base.Key())
	}
}

// TestFederatedPerfCounters pins the per-cluster performance split of a
// federated grid: every cell's ClusterMetrics carries the cluster's
// event and Pick-call counters, the Pick calls sum to the cell's global
// counter, and the rendered -perf summary includes the per-cluster
// table. Progress must fire for every federated cell with the right
// total — the regression test for the grid's stderr progress lines.
func TestFederatedPerfCounters(t *testing.T) {
	var mu sync.Mutex
	var lastDone, sawTotal, calls int
	c := &campaign.Campaign{
		Workloads:   testWorkloads(t, 200, "KTH-SP2"),
		Federations: testFederations(),
		Triples:     []core.Triple{core.EASY(), core.EASYPlusPlus()},
		Seed:        3,
		Profile:     true,
		Progress: func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			sawTotal = total
			if done > lastDone {
				lastDone = done
			}
		},
	}
	results, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want := len(results); calls != want || lastDone != want || sawTotal != want {
		t.Fatalf("progress saw calls=%d done=%d total=%d, want all %d", calls, lastDone, sawTotal, want)
	}
	for i, r := range results {
		var events, picks int64
		for _, cm := range r.Clusters {
			if cm.Events <= 0 || cm.PickCalls <= 0 {
				t.Fatalf("result %d cluster %s: counters not populated: %+v", i, cm.Name, cm)
			}
			events += cm.Events
			picks += cm.PickCalls
		}
		// Every Pick call and almost every event binds to a cluster (the
		// few that do not are unbound streaming cancels, absent here).
		if picks != r.Perf.PickCalls {
			t.Fatalf("result %d: cluster Pick calls sum %d != global %d", i, picks, r.Perf.PickCalls)
		}
		if events > r.Perf.Events {
			t.Fatalf("result %d: cluster events sum %d exceeds global %d", i, events, r.Perf.Events)
		}
		if len(r.Perf.Stages) == 0 {
			t.Fatalf("result %d: Profile did not populate Perf.Stages", i)
		}
	}
	out := report.PerfSummary(results)
	for _, want := range []string{"per federation cluster", "round-robin", "least-loaded", "big", "slow", "Stage latency histograms"} {
		if !strings.Contains(out, want) {
			t.Fatalf("federated perf summary missing %q:\n%s", want, out)
		}
	}
}

// TestFederatedCampaignTracer pins the flight-recorder threading of the
// federated grid: every cell's events arrive stamped with the cell's
// workload and triple, and route events name the cell's routing policy.
func TestFederatedCampaignTracer(t *testing.T) {
	col := &obs.Collector{}
	c := &campaign.Campaign{
		Workloads:   testWorkloads(t, 150, "KTH-SP2"),
		Federations: testFederations()[:1],
		Triples:     []core.Triple{core.EASY(), core.EASYPlusPlus()},
		Seed:        7,
		Tracer:      col,
	}
	results, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	perTriple := map[string]int{}
	for _, ev := range col.Events() {
		if err := obs.ValidateEvent(&ev); err != nil {
			t.Fatalf("invalid traced event %+v: %v", ev, err)
		}
		if ev.Workload != "KTH-SP2" || ev.Triple == "" {
			t.Fatalf("event not stamped with its cell: %+v", ev)
		}
		if ev.Kind == obs.KindPick {
			perTriple[ev.Triple]++
		}
	}
	for _, r := range results {
		if got := perTriple[r.Triple.Name()]; int64(got) != r.Perf.PickCalls {
			t.Fatalf("triple %s: %d pick events, want %d", r.Triple.Name(), got, r.Perf.PickCalls)
		}
	}
}

// TestFederatedCampaignStream holds the streaming federated grid to the
// preloading one's tables (decision identity is proven at the engine
// layer; this pins the harness plumbing).
func TestFederatedCampaignStream(t *testing.T) {
	build := func(stream bool) *campaign.Campaign {
		return &campaign.Campaign{
			Workloads:   testWorkloads(t, 150, "SDSC-SP2"),
			Federations: testFederations()[:1],
			Triples:     []core.Triple{core.EASYPlusPlus()},
			Seed:        1,
			Stream:      stream,
		}
	}
	mem, err := build(false).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	str, err := build(true).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if report.FederatedTable(mem) != report.FederatedTable(str) {
		t.Fatalf("streamed federated campaign diverges:\n%s\nvs\n%s",
			report.FederatedTable(mem), report.FederatedTable(str))
	}
}
