package campaign

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workload"
)

// multiClientWorkload generates a small three-client workload for grid
// tests.
func multiClientWorkload(t *testing.T, jobs int) *trace.Workload {
	t.Helper()
	cfg, err := workload.Scaled("KTH-SP2", jobs)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.GenerateMulti(cfg, []workload.Client{
		{Name: "steady", Fraction: 0.6},
		{Name: "bursty", Fraction: 0.3, Arrival: "gamma"},
		{Name: "tidal", Fraction: 0.1, Arrival: "weibull"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestCampaignPerClientStreamAndPreloadAgree: both grid engines attach
// the same per-client decomposition to every cell — the streaming sink
// and the preloading fold observe the identical finished population.
func TestCampaignPerClientStreamAndPreloadAgree(t *testing.T) {
	ws := []*trace.Workload{multiClientWorkload(t, 300)}
	triples := []core.Triple{core.EASY(), core.EASYPlusPlus()}

	mem := &Campaign{Workloads: ws, Triples: triples, Seed: 3}
	memResults, err := mem.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	str := &Campaign{Workloads: ws, Triples: triples, Seed: 3, Stream: true}
	strResults, err := str.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := range memResults {
		m, s := memResults[i], strResults[i]
		if len(m.Clients) != 3 || len(s.Clients) != 3 {
			t.Fatalf("cell %d: client decompositions missing: %d vs %d entries", i, len(m.Clients), len(s.Clients))
		}
		for k := range m.Clients {
			mc, sc := m.Clients[k], s.Clients[k]
			// The two engines observe retirements in different orders, so
			// the float AVEbsld sum may differ in the last ulp (exactly as
			// in the single-population stream tests); everything else is
			// order-independent and must match exactly.
			if rel := (mc.AVEbsld - sc.AVEbsld) / mc.AVEbsld; rel < -1e-12 || rel > 1e-12 {
				t.Fatalf("cell %d client %s: AVEbsld diverges: %v vs %v", i, mc.Name, mc.AVEbsld, sc.AVEbsld)
			}
			mc.AVEbsld, sc.AVEbsld = 0, 0
			if mc != sc {
				t.Fatalf("cell %d client %s: per-client metrics diverge:\n mem: %+v\n str: %+v", i, mc.Name, m.Clients[k], s.Clients[k])
			}
		}
		var share float64
		finished := 0
		for _, c := range m.Clients {
			share += c.Share
			finished += c.Finished
		}
		if share < 0.999 || share > 1.001 {
			t.Fatalf("cell %d: client shares sum to %v", i, share)
		}
		if finished != 300 {
			t.Fatalf("cell %d: per-client finishes sum to %d, want 300", i, finished)
		}
	}
}

// TestCampaignSinglePopulationHasNoClients: workloads without a clients
// decomposition must not grow one.
func TestCampaignSinglePopulationHasNoClients(t *testing.T) {
	cfg, err := workload.Scaled("KTH-SP2", 200)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := &Campaign{Workloads: []*trace.Workload{w}, Triples: []core.Triple{core.EASY()}}
	results, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Clients != nil {
		t.Fatalf("single-population cell grew a client decomposition: %+v", results[0].Clients)
	}
}

// TestPerClientJournalRoundTrip: the per-client payload survives the
// JSONL journal and reconstitutes, while the cell key ignores it — so
// journals written before the clients axis existed still resume.
func TestPerClientJournalRoundTrip(t *testing.T) {
	clients := []ClientMetrics{
		{Name: "steady", Finished: 180, Share: 0.6, AVEbsld: 10, MaxBsld: 90, MeanWait: 300},
		{Name: "bursty", Finished: 120, Share: 0.4, AVEbsld: 16, MaxBsld: 200, MeanWait: 400},
	}
	rec := CellRecord{
		Kind: "campaign", Workload: "KTH-SP2", JobCount: 300, Triple: core.EASY().Name(), Seed: 0xabc,
		AVEbsld: 12.5, MeanWait: 340, PerClient: clients,
	}
	bare := rec
	bare.PerClient = nil
	if rec.Key() != bare.Key() {
		t.Fatal("per-client payload leaked into the cell key")
	}
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var back CellRecord
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	got := back.runResult(core.EASY())
	if !reflect.DeepEqual(got.Clients, clients) {
		t.Fatalf("per-client metrics did not round-trip:\n in:  %+v\n out: %+v", clients, got.Clients)
	}
	// Absent payloads stay absent (and omit the JSON key entirely).
	b2, err := json.Marshal(bare)
	if err != nil {
		t.Fatal(err)
	}
	if string(b2) == string(b) {
		t.Fatal("per_client field not serialized")
	}
	var back2 CellRecord
	if err := json.Unmarshal(b2, &back2); err != nil {
		t.Fatal(err)
	}
	if back2.runResult(core.EASY()).Clients != nil {
		t.Fatal("nil per-client payload resurrected as non-nil")
	}
}
