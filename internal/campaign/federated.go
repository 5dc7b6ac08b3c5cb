package campaign

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Federation is one point on a campaign's platform axis: a cluster
// topology plus the routing policy in front of it.
type Federation struct {
	// Name labels the federation in journals and reports. Empty defaults
	// to the routing policy's name.
	Name string
	// Clusters describes the platform (normalized per run).
	Clusters []platform.Cluster
	// Routing names the routing policy (sched.NewRouter vocabulary).
	// Empty defaults to round-robin.
	Routing string
}

// label resolves the display/journal name.
func (f Federation) label() string {
	if f.Name != "" {
		return f.Name
	}
	return f.router()
}

// router resolves the routing policy name.
func (f Federation) router() string {
	if f.Routing != "" {
		return f.Routing
	}
	return "round-robin"
}

// ClusterMetrics is one cluster's slice of a federated cell: its
// identity, how the router loaded it, and its local metric values.
type ClusterMetrics struct {
	Name        string  `json:"name"`
	Procs       int64   `json:"procs"`
	Speed       float64 `json:"speed"`
	Routed      int     `json:"routed"`
	Finished    int     `json:"finished"`
	AVEbsld     float64 `json:"avebsld"`
	MeanWait    float64 `json:"mean_wait"`
	Utilization float64 `json:"utilization"`
	// Events and PickCalls are the cluster's slice of the run's perf
	// counters (sim.ClusterResult), rolled into report.PerfSummary so
	// -perf covers federated grids cluster by cluster. omitempty keeps
	// journals from pre-counter runs loading (and writing) unchanged.
	Events    int64 `json:"events,omitempty"`
	PickCalls int64 `json:"pick_calls,omitempty"`
}

// FederatedResult is the outcome of one (workload, federation, triple)
// cell: the familiar global metrics plus the per-cluster split.
type FederatedResult struct {
	RunResult
	// Federation and Topology identify the platform the cell ran on.
	Federation string
	Topology   string
	// Routing names the routing policy.
	Routing string
	// Clusters holds the per-cluster metrics in platform order.
	Clusters []ClusterMetrics
}

// FederatedCampaign evaluates a triple grid across workloads AND
// federated platforms: the grid is workloads x federations x triples,
// journaled and resumable exactly like Campaign (federated cells carry
// their platform identity in the journal key, so mixed journals are
// safe).
type FederatedCampaign struct {
	// Workloads are the input traces.
	Workloads []*trace.Workload
	// Federations is the platform axis; at least one is required.
	Federations []Federation
	// Triples is the heuristic-triple grid (defaults to
	// core.CampaignTriples when empty).
	Triples []core.Triple
	// Parallelism bounds concurrent simulations (defaults to GOMAXPROCS).
	Parallelism int
	// Seed is the base seed each cell's deterministic seed derives from.
	Seed uint64
	// Stream runs every cell on the bounded-memory federated engine (see
	// Campaign.Stream; per-cluster validation is then the differential
	// layer's burden).
	Stream bool
	// Progress, Journal and Resume behave exactly as on Campaign.
	Progress func(done, total int)
	Journal  *Journal
	Resume   map[string]CellRecord
	// Tracer and Profile enable the flight recorder and stage
	// histograms per cell; see Campaign.Tracer and Campaign.Profile.
	Tracer  obs.Tracer
	Profile bool
}

// Run executes the grid on the shared cancellable executor. Results are
// ordered workload-major, federation-mid, triple-minor regardless of
// completion order. On error it returns every completed cell (in grid
// order) with the joined error, like Campaign.Run.
func (c *FederatedCampaign) Run(ctx context.Context) ([]FederatedResult, error) {
	if len(c.Federations) == 0 {
		return nil, fmt.Errorf("campaign: federated campaign needs at least one federation")
	}
	triples := c.Triples
	if len(triples) == 0 {
		triples = core.CampaignTriples()
	}
	// Validate the platform axis up front: one bad topology should fail
	// fast, not per cell inside the pool.
	topologies := make([]string, len(c.Federations))
	for fi, fed := range c.Federations {
		norm, err := platform.Normalize(fed.Clusters)
		if err != nil {
			return nil, fmt.Errorf("campaign: federation %s: %w", fed.label(), err)
		}
		if _, err := sched.NewRouter(fed.router()); err != nil {
			return nil, fmt.Errorf("campaign: federation %s: %w", fed.label(), err)
		}
		topologies[fi] = platform.Topology(norm)
	}

	nf, nt := len(c.Federations), len(triples)
	results := make([]FederatedResult, len(c.Workloads)*nf*nt)
	completed := make([]bool, len(results))

	for wi, w := range c.Workloads {
		for fi, fed := range c.Federations {
			for ti, tr := range triples {
				i := (wi*nf+fi)*nt + ti
				key := CellRecord{
					Kind: "campaign", Workload: w.Name, JobCount: len(w.Jobs),
					Triple: tr.Name(), Seed: cellSeed(c.Seed, i),
					Federation: fed.label(), Topology: topologies[fi],
				}.Key()
				if rec, ok := c.Resume[key]; ok {
					results[i] = rec.federatedResult(tr, fed.router())
					completed[i] = true
				}
			}
		}
	}

	g := grid{
		total:       len(results),
		parallelism: c.Parallelism,
		seed:        c.Seed,
		progress:    c.Progress,
		skip:        func(i int) bool { return completed[i] },
	}
	err := g.run(ctx, func(i int, seed uint64) error {
		wi, fi, ti := i/(nf*nt), (i/nt)%nf, i%nt
		fed := c.Federations[fi]
		fr, err := runOneFederated(c.Workloads[wi], fed, topologies[fi], triples[ti], c.Stream, c.Tracer, c.Profile)
		if err != nil {
			return err
		}
		results[i] = fr
		completed[i] = true
		if c.Journal != nil {
			rec := newCellRecord("campaign", "", len(c.Workloads[wi].Jobs), fr.RunResult, seed, 0, 0)
			rec.Federation = fr.Federation
			rec.Topology = fr.Topology
			rec.Clusters = fr.Clusters
			if jerr := c.Journal.Append(rec); jerr != nil {
				return jerr
			}
		}
		return nil
	})
	if err != nil {
		return compact(results, completed), err
	}
	return results, nil
}

// federatedResult reconstitutes a journaled federated cell.
func (r CellRecord) federatedResult(tr core.Triple, routing string) FederatedResult {
	return FederatedResult{
		RunResult:  r.runResult(tr),
		Federation: r.Federation,
		Topology:   r.Topology,
		Routing:    routing,
		Clusters:   r.Clusters,
	}
}

// runOneFederated simulates one (workload, federation, triple) cell.
// The preloading path validates the realized schedule cluster by
// cluster; the streaming path trusts the differential layer, as the
// single-machine harness does.
func runOneFederated(w *trace.Workload, fed Federation, topology string, tr core.Triple, stream bool, tracer obs.Tracer, profile bool) (FederatedResult, error) {
	clusters, err := platform.Normalize(fed.Clusters)
	if err != nil {
		return FederatedResult{}, fmt.Errorf("campaign: federation %s: %w", fed.label(), err)
	}
	router, err := sched.NewRouter(fed.router())
	if err != nil {
		return FederatedResult{}, fmt.Errorf("campaign: federation %s: %w", fed.label(), err)
	}
	col := metrics.NewFederated(len(clusters))
	cfg := sim.FederatedConfig{
		Clusters: clusters,
		Router:   router,
		Session:  tr.Config,
		Sink:     col,
		Profile:  profile,
	}
	if tracer != nil {
		cfg.Tracer = obs.Tagged{Tracer: tracer, Workload: w.Name, Triple: tr.Name()}
	}
	var res *sim.Result
	if stream {
		res, err = sim.RunFederatedStream(w.Name, workload.FromWorkload(w), cfg)
	} else {
		res, err = sim.RunFederated(w, cfg)
	}
	if err != nil {
		return FederatedResult{}, fmt.Errorf("campaign: %s on %s/%s: %w", tr.Name(), w.Name, fed.label(), err)
	}
	if !stream {
		if verrs := sim.ValidateResult(res); len(verrs) != 0 {
			return FederatedResult{}, fmt.Errorf("campaign: %s on %s/%s: invalid schedule: %v", tr.Name(), w.Name, fed.label(), verrs[0])
		}
	}

	cm := make([]ClusterMetrics, len(res.Clusters))
	for ci := range res.Clusters {
		cr := &res.Clusters[ci]
		cc := col.Clusters[ci]
		cm[ci] = ClusterMetrics{
			Name:        cr.Name,
			Procs:       cr.MaxProcs,
			Speed:       cr.Speed,
			Routed:      cr.Routed,
			Finished:    cr.Finished,
			AVEbsld:     cc.AVEbsld(),
			MeanWait:    cc.MeanWait(),
			Utilization: cc.Utilization(cr.Makespan, cr.MaxProcs),
			Events:      cr.Events,
			PickCalls:   cr.PickCalls,
		}
	}
	g := col.Global()
	return FederatedResult{
		RunResult: RunResult{
			Workload:    w.Name,
			Triple:      tr,
			AVEbsld:     g.AVEbsld(),
			MaxBsld:     g.MaxBsld(),
			MeanWait:    g.MeanWait(),
			Utilization: g.Utilization(res.Makespan, res.MaxProcs),
			Corrections: res.Corrections,
			Canceled:    res.Canceled,
			MAE:         g.MAE(),
			MeanELoss:   g.MeanELoss(),
			Perf:        res.Perf,
		},
		Federation: fed.label(),
		Topology:   topology,
		Routing:    res.Routing,
		Clusters:   cm,
	}, nil
}
