package campaign

import (
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
	// Clusters describes the platform (normalized per run).
	Clusters []platform.Cluster
	// Routing names the routing policy (sched.NewRouter vocabulary). It
	// labels the federation in journals and reports. Empty defaults to
	// round-robin.
	Routing string
}

// router resolves the routing policy name.
func (f Federation) router() string {
	if f.Routing != "" {
		return f.Routing
	}
	return "round-robin"
}

// platform builds the federation's normalized clusters and a fresh
// router for one run.
func (f Federation) platform() ([]platform.Cluster, sched.Router, error) {
	clusters, err := platform.Normalize(f.Clusters)
	if err != nil {
		return nil, nil, fmt.Errorf("campaign: federation %s: %w", f.router(), err)
	}
	router, err := sched.NewRouter(f.router())
	if err != nil {
		return nil, nil, fmt.Errorf("campaign: federation %s: %w", f.router(), err)
	}
	return clusters, router, nil
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

// runOneFederated simulates one (workload, federation, triple) cell and
// records its global and per-cluster measurements in rec. The
// preloading path validates the realized schedule cluster by cluster;
// the streaming path trusts the differential layer, as the
// single-machine harness does.
func runOneFederated(rec *CellRecord, w *trace.Workload, fed Federation, tr core.Triple, stream bool, tracer obs.Tracer, profile bool) error {
	clusters, router, err := fed.platform()
	if err != nil {
		return err
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
		return fmt.Errorf("campaign: %s on %s/%s: %w", tr.Name(), w.Name, fed.router(), err)
	}
	if !stream {
		if verrs := sim.ValidateResult(res); len(verrs) != 0 {
			return fmt.Errorf("campaign: %s on %s/%s: invalid schedule: %v", tr.Name(), w.Name, fed.router(), verrs[0])
		}
	}

	rec.Clusters = make([]ClusterMetrics, len(res.Clusters))
	for ci := range res.Clusters {
		cr := &res.Clusters[ci]
		cc := col.Clusters[ci]
		rec.Clusters[ci] = ClusterMetrics{
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
	rec.measure(col.Global(), res)
	return nil
}
