package sim

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/workload"
)

// FederatedConfig describes a federated run: a platform of independent
// clusters, a routing policy in front of them, and a factory producing
// one fresh heuristic-triple session per cluster. Each cluster runs its
// own policy and predictor instance — scheduling state, backfilling
// reservations and learned per-user history never cross clusters; only
// the router sees the whole platform.
type FederatedConfig struct {
	// Clusters describes the platform. Normalized (named, validated)
	// internally; at least one cluster is required.
	Clusters []platform.Cluster
	// Router picks the destination cluster at submit time. Nil defaults
	// to round-robin.
	Router sched.Router
	// Session returns the heuristic triple for one cluster. It is called
	// once per cluster, so stateful policies and predictors get
	// independent sessions. The returned Config's Script and Sink must
	// be nil: disruptions and observation are per-run, not per-cluster
	// (use FederatedConfig.Script and Sink). The corrector of the first
	// session is used for the whole run.
	Session func() Config
	// Script optionally injects timed disruptions. Drains and restores
	// target the cluster named by their Cluster field (empty means the
	// first cluster); cancellations find their job wherever it is.
	Script *scenario.Script
	// Sink, when non-nil, observes every finished job exactly once, in
	// event order (see Config.Sink). Jobs carry their destination in
	// Job.Cluster, which is how metrics.Federated splits them.
	Sink JobSink
	// Tracer and Profile enable the flight recorder and the per-stage
	// latency histograms for the whole run (see Config.Tracer and
	// Config.Profile). Like Script and Sink, they are run-wide: the
	// per-cluster session Configs must leave them unset.
	Tracer  obs.Tracer
	Profile bool
}

// setup validates the config and builds the N-cluster engine, calling
// Session once per cluster.
func (fed FederatedConfig) setup(name string) (*engine, error) {
	clusters, err := platform.Normalize(fed.Clusters)
	if err != nil {
		return nil, err
	}
	if fed.Session == nil {
		return nil, fmt.Errorf("sim: federated run needs a Session factory")
	}
	sessions := make([]Config, len(clusters))
	for i, c := range clusters {
		cfg := fed.Session()
		if err := checkConfig(cfg); err != nil {
			return nil, fmt.Errorf("sim: cluster %s session: %w", c.Name, err)
		}
		if cfg.Script != nil || cfg.Sink != nil || cfg.Tracer != nil || cfg.Profile {
			return nil, fmt.Errorf("sim: cluster %s session: Script, Sink, Tracer and Profile belong on FederatedConfig, not the per-cluster Config", c.Name)
		}
		sessions[i] = cfg
	}
	router := fed.Router
	if router == nil {
		router = &sched.RoundRobin{}
	}
	return newEngine(name, clusters, sessions, router, Config{Sink: fed.Sink, Tracer: fed.Tracer, Profile: fed.Profile}), nil
}

// RunFederated simulates the workload over a federated platform,
// preloading every job and retaining the full realized schedule, the
// per-cluster counters and the per-cluster capacity timelines on the
// Result. A one-cluster federation with a unit speed factor reproduces
// Run byte for byte — the identity federated_diff_test.go enforces.
func RunFederated(w *trace.Workload, fed FederatedConfig) (*Result, error) {
	e, err := fed.setup(w.Name)
	if err != nil {
		return nil, err
	}
	if err := e.preload(w, fed.Script); err != nil {
		return nil, err
	}
	return e.run(noCommands{})
}

// RunFederatedStream is the bounded-memory federated run: it pulls
// submissions lazily from src and retires finished jobs into fed.Sink,
// like RunStream, while routing each submission across the federation
// like RunFederated. Peak memory is O(live jobs + window) summed over
// the clusters. A one-cluster unit-speed federation reproduces
// RunStream byte for byte.
func RunFederatedStream(name string, src workload.Source, fed FederatedConfig) (*Result, error) {
	e, err := fed.setup(name)
	if err != nil {
		return nil, err
	}
	cmds, err := e.streamed(src, fed.Script)
	if err != nil {
		return nil, err
	}
	return e.run(cmds)
}
