package metrics

import (
	"repro/internal/job"
	"repro/internal/sim"
)

// Federated is the sink of a federated run: one Collector per cluster,
// split by the destination the router stamped on each job, plus a
// merged global view over the whole platform. Observations touch only
// the destination cluster's collector. The global figures are assembled
// on demand by merging the per-cluster collectors in platform order — a
// fixed fold, so the global float sums every federated report prints
// are deterministic.
type Federated struct {
	// Clusters holds one collector per cluster, in platform order.
	Clusters []*Collector
}

// NewFederated returns an empty federated sink for n clusters.
func NewFederated(n int) *Federated {
	f := &Federated{Clusters: make([]*Collector, n)}
	for i := range f.Clusters {
		f.Clusters[i] = NewCollector()
	}
	return f
}

// Observe implements sim.JobSink. Jobs whose cluster stamp falls outside
// the platform (which a correct run never produces) are dropped.
func (f *Federated) Observe(j *job.Job) {
	if j.Cluster >= 0 && j.Cluster < len(f.Clusters) {
		f.Clusters[j.Cluster].Observe(j)
	}
}

// Global merges the per-cluster collectors, in platform order, into a
// fresh platform-wide collector. The fold order is fixed, so the result
// is deterministic.
func (f *Federated) Global() *Collector {
	g := NewCollector()
	for _, c := range f.Clusters {
		g.Merge(c)
	}
	return g
}

// statically assert the sink contract.
var _ sim.JobSink = (*Federated)(nil)
