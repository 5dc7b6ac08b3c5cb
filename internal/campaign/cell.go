package campaign

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// CellRecord is the journal form of one completed grid cell. It carries
// everything a report needs (so a resumed campaign reproduces the exact
// tables of an uninterrupted one) plus the run's performance counters,
// keyed by enough identity — kind, workload, job count, intensity,
// triple name and derived cell seed — that stale journals from a grid
// run with different parameters can never be mistaken for progress.
type CellRecord struct {
	// Kind is "campaign" or "robustness".
	Kind string `json:"kind"`
	// Workload and JobCount identify the input trace.
	Workload string `json:"workload"`
	JobCount int    `json:"job_count"`
	// Triple is the heuristic triple's canonical name.
	Triple string `json:"triple"`
	// Intensity is the disruption level (robustness cells only).
	Intensity string `json:"intensity,omitempty"`
	// Seed is the cell's deterministic derived seed. It is a pure
	// function of the grid's base seed and the cell's position, so it
	// doubles as a fingerprint of both in the cell key.
	Seed uint64 `json:"seed"`
	// Federation and Topology identify the platform of a federated cell:
	// its routing policy and the canonical cluster-shape fingerprint
	// (platform.Topology). Both are empty on classic single-machine
	// cells, whose keys are unchanged.
	Federation string `json:"federation,omitempty"`
	Topology   string `json:"topology,omitempty"`

	AVEbsld     float64 `json:"avebsld"`
	MaxBsld     float64 `json:"max_bsld"`
	MeanWait    float64 `json:"mean_wait"`
	Utilization float64 `json:"utilization"`
	Corrections int     `json:"corrections"`
	Canceled    int     `json:"canceled"`
	MAE         float64 `json:"mae"`
	MeanELoss   float64 `json:"mean_eloss"`

	// Drains and CancelEvents summarize the disruption script
	// (robustness cells only).
	Drains       int `json:"drains,omitempty"`
	CancelEvents int `json:"cancel_events,omitempty"`

	// Clusters carries the per-cluster metrics of a federated cell.
	Clusters []ClusterMetrics `json:"clusters,omitempty"`

	// PerClient carries the per-traffic-source decomposition of a
	// multi-client cell. Purely additive payload: it is not part of the
	// cell key, so journals from before the clients axis existed still
	// resume.
	PerClient []ClientMetrics `json:"per_client,omitempty"`

	// Perf holds the simulation's performance counters, making every
	// journal a performance record of the engine itself.
	Perf sim.Perf `json:"perf"`
}

// Key returns the identity a resumed grid matches cells on. Federated
// cells append their platform identity; single-machine cells keep the
// historical key shape, so journals from before the federation axis
// existed still resume.
func (r CellRecord) Key() string {
	parts := []string{
		r.Kind, r.Workload, strconv.Itoa(r.JobCount), r.Intensity, r.Triple,
		strconv.FormatUint(r.Seed, 16),
	}
	if r.Federation != "" || r.Topology != "" {
		parts = append(parts, r.Federation, r.Topology)
	}
	return strings.Join(parts, "|")
}

// runResult rebuilds a cell's in-memory result from its record, fresh
// or resumed alike, re-attaching the live Triple value (interfaces do not
// survive JSON, so journals store the canonical name and the grid
// supplies the value).
func (r CellRecord) runResult(tr core.Triple) RunResult {
	return RunResult{
		Workload:    r.Workload,
		Triple:      tr,
		AVEbsld:     r.AVEbsld,
		MaxBsld:     r.MaxBsld,
		MeanWait:    r.MeanWait,
		Utilization: r.Utilization,
		Corrections: r.Corrections,
		Canceled:    r.Canceled,
		MAE:         r.MAE,
		MeanELoss:   r.MeanELoss,
		Clients:     r.PerClient,
		Routing:     r.Federation,
		Topology:    r.Topology,
		Clusters:    r.Clusters,
		Perf:        r.Perf,
	}
}

// measure records a finished run's global measurements, read from the
// collector that observed it.
func (r *CellRecord) measure(col *metrics.Collector, res *sim.Result) {
	r.AVEbsld, r.MaxBsld, r.MeanWait = col.AVEbsld(), col.MaxBsld(), col.MeanWait()
	r.Utilization = col.Utilization(res.Makespan, res.MaxProcs)
	r.Corrections, r.Canceled = res.Corrections, res.Canceled
	r.MAE, r.MeanELoss = col.MAE(), col.MeanELoss()
	r.Perf = res.Perf
}

// Journal is the result journal both grid harnesses append to.
type Journal = journal.Writer[CellRecord]

// OpenJournal opens (creating or appending to) a result journal.
func OpenJournal(path string) (*Journal, error) {
	return journal.OpenWriter[CellRecord](path)
}

// LoadJournal reads a result journal back as a Resume map keyed by
// CellRecord.Key. A truncated final line (interrupted append) is
// tolerated; dropped reports whether one was discarded.
func LoadJournal(path string) (done map[string]CellRecord, dropped bool, err error) {
	recs, stats, err := journal.Load[CellRecord](path)
	if err != nil {
		return nil, false, fmt.Errorf("campaign: %w", err)
	}
	done = make(map[string]CellRecord, len(recs))
	for _, r := range recs {
		done[r.Key()] = r
	}
	return done, stats.Dropped > 0, nil
}
