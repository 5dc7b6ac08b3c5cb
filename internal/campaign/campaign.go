// Package campaign is the experiment harness of Section 6: it runs every
// heuristic triple over every workload, aggregates AVEbsld scores, and
// implements the leave-one-out cross-validation triple selection of
// Section 6.3.3. All paper tables and figure series are derived from a
// campaign's Results.
package campaign

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// RunResult is the outcome of one grid cell: a (workload, triple)
// simulation on the workload's own machine or on one federated platform.
type RunResult struct {
	Workload string
	Triple   core.Triple
	// AVEbsld is the average bounded slowdown (the paper's objective).
	AVEbsld float64
	// MaxBsld is the worst job's bounded slowdown.
	MaxBsld float64
	// MeanWait is the mean waiting time in seconds.
	MeanWait float64
	// Utilization is work/capacity over the makespan.
	Utilization float64
	// Corrections is the number of prediction corrections performed.
	Corrections int
	// Canceled is the number of jobs removed by scenario cancellations
	// (always 0 for the undisrupted campaign).
	Canceled int
	// MAE and MeanELoss judge the submission-time predictions.
	MAE       float64
	MeanELoss float64
	// Clients decomposes the cell by traffic source when the workload
	// carries a multi-client clients block (trace.Workload.Clients).
	// Nil for single-population workloads and federated cells (whose
	// decomposition axis is the cluster).
	Clients []ClientMetrics
	// Routing and Topology identify a federated cell's platform: the
	// routing policy and the canonical cluster-shape fingerprint
	// (platform.Topology). Clusters holds its per-cluster metrics in
	// platform order. All three stay zero on single-machine cells.
	Routing  string
	Topology string
	Clusters []ClusterMetrics
	// Perf holds the simulation's performance counters.
	Perf sim.Perf
}

// Campaign holds the workloads and triple set to evaluate.
type Campaign struct {
	// Workloads are the inputs, typically the six Table-4 presets.
	Workloads []*trace.Workload
	// Triples is the heuristic-triple grid (defaults to
	// core.CampaignTriples when empty; see TripleAxis).
	Triples []core.Triple
	// Federations is the platform axis: every (workload, triple) cell
	// runs once per federation, its jobs routed across the federation's
	// clusters. Empty means the single machine each workload describes.
	Federations []Federation
	// Parallelism bounds concurrent simulations (defaults to GOMAXPROCS).
	Parallelism int
	// Seed is the base seed each cell's deterministic seed is derived
	// from (recorded in the journal; the undisrupted campaign itself is
	// seed-independent).
	Seed uint64
	// Stream runs every cell on the bounded-memory engine
	// (sim.RunStream + metrics.Collector) instead of the preloading one.
	// Decisions and metrics are identical (enforced by the differential
	// tests in internal/sim). The win is per-cell simulation state: a
	// preloading cell materializes runtime job state, a trace-sized
	// event queue and a fully retained Result.Jobs — multiplied by the
	// number of cells in flight — while a streamed cell holds only its
	// live-job window. The input traces in Workloads stay materialized
	// either way (scripts, journal keys and reports need them); the
	// fully bounded O(live jobs + window) paths are the ones fed by
	// lazy sources, e.g. simsched/gentrace -stream. Per-schedule
	// validation (sim.ValidateResult) is skipped: it needs the retained
	// schedule, and the streaming engine's equivalence to the validated
	// path is exactly what the differential layer proves. Federated
	// cells stream through the federated engine the same way.
	Stream bool
	// Progress, when non-nil, is called after every settled cell
	// (completed, failed, or skipped via Resume) with the number done
	// so far and the grid total. It is invoked from worker goroutines
	// and must be safe for concurrent use.
	Progress func(done, total int)
	// Journal, when non-nil, receives every completed cell as it
	// finishes, making the grid durable: an interrupted run can be
	// resumed from the journal without recomputing finished cells.
	Journal *Journal
	// Resume holds journaled cells from a previous run, keyed by
	// CellRecord.Key (see LoadJournal). Matching cells are not re-run
	// (or re-journaled); their recorded results are returned in place.
	Resume map[string]CellRecord
	// Tracer, when non-nil, receives the flight-recorder event stream of
	// every simulated cell, each event tagged with the cell's workload
	// and triple (obs.Tagged). Cells run concurrently, so the tracer
	// must be safe for concurrent use — obs.JSONL is. Resumed cells are
	// not re-traced (they are not re-run).
	Tracer obs.Tracer
	// Profile collects per-stage latency histograms into each cell's
	// Perf (rendered by report.PerfSummary).
	Profile bool
}

// DefaultWorkloads generates the six paper presets scaled to jobsPerLog
// jobs each (0 = full Table-4 sizes).
func DefaultWorkloads(jobsPerLog int) ([]*trace.Workload, error) {
	var out []*trace.Workload
	for _, name := range workload.PresetNames() {
		cfg, err := workload.Scaled(name, jobsPerLog)
		if err != nil {
			return nil, err
		}
		w, err := workload.Generate(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// TripleAxis returns the triples Run grids over: Triples, or
// core.CampaignTriples when it is empty.
func (c *Campaign) TripleAxis() []core.Triple {
	if len(c.Triples) > 0 {
		return c.Triples
	}
	return core.CampaignTriples()
}

// Run executes the full grid on the shared cancellable cell loop.
// Results are ordered workload-major, federation-mid, triple-minor
// regardless of completion order, keeping reports deterministic.
// Cancelling ctx stops the grid gracefully after in-flight cells
// finish. On error — cell failures or cancellation — Run returns every
// completed cell (still in grid order) together with the joined error,
// so journaled progress and partial results survive instead of being
// thrown away.
func (c *Campaign) Run(ctx context.Context) ([]RunResult, error) {
	triples := c.TripleAxis()
	// Every federation is checked up front, so a bad one fails fast
	// instead of once per cell. No federation means one platform: the
	// single machine.
	topologies := make([]string, len(c.Federations))
	for fi, fed := range c.Federations {
		clusters, _, err := fed.platform()
		if err != nil {
			return nil, err
		}
		topologies[fi] = platform.Topology(clusters)
	}
	nf, nt := max(1, len(c.Federations)), len(triples)
	g := grid{
		total:       len(c.Workloads) * nf * nt,
		parallelism: c.Parallelism,
		seed:        c.Seed,
		progress:    c.Progress,
		journal:     c.Journal,
		resume:      c.Resume,
	}
	return runCells(ctx, g, func(i int) CellRecord {
		w, fi := c.Workloads[i/(nf*nt)], (i/nt)%nf
		key := CellRecord{Kind: "campaign", Workload: w.Name, JobCount: len(w.Jobs), Triple: triples[i%nt].Name()}
		if len(c.Federations) > 0 {
			key.Federation, key.Topology = c.Federations[fi].router(), topologies[fi]
		}
		return key
	}, func(i int, rec *CellRecord) error {
		w, fi, tr := c.Workloads[i/(nf*nt)], (i/nt)%nf, triples[i%nt]
		if len(c.Federations) > 0 {
			return runOneFederated(rec, w, c.Federations[fi], tr, c.Stream, c.Tracer, c.Profile)
		}
		return runOne(rec, w, tr, nil, c.Stream, c.Tracer, c.Profile)
	}, func(i int, rec CellRecord) RunResult {
		return rec.runResult(triples[i%nt])
	})
}

// runOne simulates one (workload, triple) cell, optionally under a
// disruption script, and records its measurements in rec. The
// preloading path validates the realized schedule; the streaming path
// computes its metrics one-pass without ever retaining the schedule
// (equivalence to the validated path is the differential layer's
// burden).
func runOne(rec *CellRecord, w *trace.Workload, tr core.Triple, script *scenario.Script, stream bool, tracer obs.Tracer, profile bool) error {
	cfg := tr.Config()
	cfg.Script = script
	if tracer != nil {
		cfg.Tracer = obs.Tagged{Tracer: tracer, Workload: w.Name, Triple: tr.Name()}
	}
	cfg.Profile = profile
	if stream {
		// Multi-client workloads swap in a per-client sink; its Overall
		// collector accumulates exactly what the plain Collector would.
		var clients *metrics.PerClient
		col := metrics.NewCollector()
		cfg.Sink = col
		if len(w.Clients) > 0 {
			clients = metrics.NewPerClient(w.Clients)
			cfg.Sink = clients
			col = clients.Overall()
		}
		res, err := sim.RunStream(w.Name, w.MaxProcs, workload.FromWorkload(w), cfg)
		if err != nil {
			return fmt.Errorf("campaign: %s on %s (stream): %w", tr.Name(), w.Name, err)
		}
		rec.measure(col, res)
		if clients != nil {
			rec.PerClient = perClientMetrics(clients)
		}
		return nil
	}
	res, err := sim.Run(w, cfg)
	if err != nil {
		return fmt.Errorf("campaign: %s on %s: %w", tr.Name(), w.Name, err)
	}
	if verrs := sim.ValidateResult(res); len(verrs) != 0 {
		return fmt.Errorf("campaign: %s on %s: invalid schedule: %v", tr.Name(), w.Name, verrs[0])
	}
	rec.AVEbsld = metrics.AVEbsld(res)
	rec.MaxBsld = metrics.MaxBsld(res)
	rec.MeanWait = metrics.MeanWait(res)
	rec.Utilization = metrics.Utilization(res)
	rec.Corrections = res.Corrections
	rec.Canceled = res.Canceled
	rec.MAE = metrics.MAE(res.Jobs)
	rec.MeanELoss = metrics.MeanELoss(res.Jobs)
	rec.Perf = res.Perf
	if len(w.Clients) > 0 {
		rec.PerClient = perClientMetrics(perClientFromJobs(w.Clients, res.Jobs))
	}
	return nil
}

// Score looks up the AVEbsld of a (workload, triple-name) pair.
func Score(results []RunResult, workloadName, tripleName string) (float64, bool) {
	for i := range results {
		if results[i].Workload == workloadName && results[i].Triple.Name() == tripleName {
			return results[i].AVEbsld, true
		}
	}
	return 0, false
}

// ByWorkload groups results per workload, preserving triple order.
func ByWorkload(results []RunResult) map[string][]RunResult {
	out := make(map[string][]RunResult)
	for _, r := range results {
		out[r.Workload] = append(out[r.Workload], r)
	}
	return out
}
