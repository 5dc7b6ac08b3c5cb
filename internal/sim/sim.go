// Package sim is the discrete-event scheduling simulator (the Go
// equivalent of the pyss fork the paper used). It replays a workload
// through a scheduling policy wired to a prediction technique and a
// correction mechanism — one "heuristic triple" — and records the
// realized schedule for metric computation.
//
// Event semantics follow Section 5: predictions are made once at
// submission; when a running job outlives its prediction, an expiry
// event fires and the correction mechanism supplies a new total-runtime
// estimate (bounded by the requested time); completions, disruptions,
// expiries and submissions at the same instant are processed in that
// order; after every event the policy is offered start decisions until
// it declines. The policy is driven through its lifecycle hooks
// (OnSubmit/OnStart/OnFinish/OnExpiry/OnCancel/OnCapacityChange) in
// lockstep with the machine so stateful policies can maintain
// incremental acceleration structures across decisions.
//
// Beyond the paper's static testbed, a Config may carry a
// scenario.Script of timed disruptions: node drains and restores make
// the available capacity a step function of time (drains are graceful —
// running jobs are never killed by a capacity change), and cancellations
// remove jobs wherever they are — before submission, in the queue, or
// running. The realized capacity timeline is recorded on the Result so
// validation can check the schedule against it.
//
// There is one event loop (engine.go, loop.go) and five thin entry
// points that differ only in how jobs reach it. Every entry point builds
// the engine over 1..N clusters — one cluster and no router for Run,
// RunStream and RunLive; a platform behind a sched.Router, consulted
// once per job at submission, for RunFederated and RunFederatedStream —
// and then hands the loop a command source:
//
//   - Preloaded (Run, RunFederated): every job is admitted before the
//     loop starts and retained on the Result — the validating,
//     table-producing path. The loop runs with an empty source.
//   - Streamed (RunStream, RunFederatedStream): a workload.Source is a
//     stream of submit commands, pulled exactly when the event clock
//     reaches them; finished jobs are handed to a JobSink and recycled,
//     keeping peak memory O(live jobs + window) regardless of trace
//     length.
//   - Live (RunLive): an externally produced command stream —
//     submissions, cancellations and capacity changes from live
//     clients, sequenced by internal/schedd — whose advance promises
//     stand in for the script's complete knowledge of the future.
//
// A script's cancellations and live cancel commands name jobs by ID;
// the engine resolves them through one ID index that holds only the IDs
// a cancellation can still name.
//
// Each cluster's waiting queue is in FCFS order: a submission appends,
// and a start or a cancellation removes without reordering. The engine
// stamps each job with job.Seq from one counter per run as it joins a
// queue, so every queue is strictly increasing in Seq, and a start and a
// queued cancellation find their job with the same binary search.
//
// The differential tests
// (stream_diff_test.go, federated_diff_test.go, live_diff_test.go) hold
// the intakes to decision-identical schedules, and golden_test.go holds
// the loop to digests recorded before the drivers were folded onto it.
//
// # Determinism invariants
//
// Every run is deterministic given (workload, config, script): no map
// iteration order, goroutine schedule or wall clock leaks into a
// decision. The invariants that guarantee it:
//
//   - Same-instant ordering. Events at one instant are processed in
//     eventq's fixed kind order (completions, cancellations, capacity
//     changes, expiries, submissions) and, within a kind, insertion
//     order — see the eventq package comment. The loop applies every
//     command taking effect at or before the next event's instant
//     before popping it, so the order is the same for every intake.
//   - Canonical tie-breaks. Wherever the engine or a policy must order
//     jobs, ties fall back to the unique job ID (e.g. the machine's
//     predicted-release order is (instant, ID)), so no two orderings
//     are ever "equal".
//   - Router sequencing. Federated runs consult the router once per
//     job in submission order, against cluster states that have
//     advanced exactly to that job's submission instant.
package sim

import (
	"fmt"
	"time"

	"repro/internal/correct"
	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/predict"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config is one heuristic triple plus the workload-independent knobs.
type Config struct {
	// Policy is the backfilling variant.
	Policy sched.Policy
	// Predictor is the running-time prediction technique.
	Predictor predict.Predictor
	// Corrector handles expired predictions. Nil defaults to
	// correct.RequestedTime (fall back to the user estimate).
	Corrector correct.Corrector
	// Script optionally injects timed disruptions (node drains and
	// restores, job cancellations) into the event loop. Nil or empty
	// reproduces the static machine exactly.
	Script *scenario.Script
	// Sink, when non-nil, observes every job that finishes (normally or
	// killed by a cancellation), exactly once, in event order, with its
	// realized schedule filled in. It is how streaming runs compute
	// metrics without retaining jobs; preloading runs honor it
	// too, so the two paths feed identical observation sequences.
	Sink JobSink
	// Tracer, when non-nil, receives a structured flight-recorder event
	// for every scheduling decision (see internal/obs). Tracing is pure
	// observation: a traced run makes byte-identical decisions to an
	// untraced one (trace_diff_test.go), and a nil Tracer costs nothing
	// on the hot path.
	Tracer obs.Tracer
	// Profile, when true, collects per-stage latency histograms (event
	// pop, policy Pick, predictor profile update) into
	// Result.Perf.Stages using bounded quantile sketches.
	Profile bool
}

// JobSink receives finished jobs as the simulation retires them. Jobs a
// scenario canceled before they ever ran are not observed (they have no
// realized schedule), matching the population the batch metrics use.
type JobSink interface {
	Observe(j *job.Job)
}

// Name renders the triple as "policy/predictor/corrector".
func (c Config) Name() string {
	corr := c.Corrector
	if corr == nil {
		corr = correct.RequestedTime{}
	}
	return c.Policy.Name() + "/" + c.Predictor.Name() + "/" + corr.Name()
}

// CapacityStep is one breakpoint of the realized capacity timeline: the
// in-service processor count from At onward.
type CapacityStep struct {
	At       int64
	Capacity int64
}

// Perf aggregates cheap per-run performance counters. They cost two
// increments per event on the hot loop and one clock read per run, and
// they turn every campaign into a performance record: carried through
// campaign.RunResult into the result journal, they give CI and
// operators a per-cell view of how much work the engine did and how
// fast. Events and PickCalls are deterministic for a given (workload,
// config); WallNanos is wall-clock and varies run to run.
type Perf struct {
	// Events is the number of events popped from the event queue.
	Events int64 `json:"events"`
	// PickCalls is the number of policy Pick invocations (the
	// scheduler hot path).
	PickCalls int64 `json:"pick_calls"`
	// WallNanos is the wall-clock duration of the simulation in
	// nanoseconds.
	WallNanos int64 `json:"wall_nanos"`
	// Stages holds per-stage latency summaries when profiling was
	// enabled (Config.Profile), nil otherwise — so journals from
	// unprofiled runs are byte-for-byte what they always were.
	Stages []obs.StagePerf `json:"stages,omitempty"`
}

// Wall returns the simulation wall time as a Duration.
func (p Perf) Wall() time.Duration { return time.Duration(p.WallNanos) }

// Result is the realized schedule of one simulation.
type Result struct {
	// Triple names the heuristic triple that produced the schedule.
	Triple string
	// Workload names the input workload.
	Workload string
	// Scenario names the disruption script, if any.
	Scenario string
	// MaxProcs is the nominal machine size.
	MaxProcs int64
	// Jobs holds every job with Start/End/Prediction state filled in,
	// in submission order. Canceled jobs that never ran keep
	// Started == false. Nil on a streamed run (Streamed is true):
	// bounded-memory runs observe jobs through Config.Sink instead of
	// retaining them.
	Jobs []*job.Job
	// Streamed marks a bounded-memory RunStream result: Jobs is nil and
	// per-job analyses must come from the Config.Sink observer.
	Streamed bool
	// Finished counts the jobs that completed (including jobs killed
	// mid-run by a cancellation).
	Finished int
	// Corrections is the total number of prediction-expiry corrections.
	Corrections int
	// Canceled is the number of jobs removed by scenario cancellations.
	Canceled int
	// CapacitySteps records the realized capacity step function: one
	// entry per instant the in-service processor count changed. Empty
	// means the capacity stayed at MaxProcs throughout. On a federated
	// run this is set only for single-cluster platforms (where it equals
	// the sole cluster's timeline); multi-cluster timelines live on
	// Clusters.
	CapacitySteps []CapacityStep
	// Makespan is the completion time of the last job.
	Makespan int64
	// Routing names the routing policy of a federated run, "" on classic
	// single-machine runs.
	Routing string
	// Clusters holds the per-cluster results of a federated run in
	// platform order, nil on classic single-machine runs. MaxProcs is
	// then the federation's total processor count.
	Clusters []ClusterResult
	// Perf holds the run's performance counters.
	Perf Perf
}

// ClusterResult is one cluster's slice of a federated Result: the
// counters and capacity timeline of the jobs routed to it.
type ClusterResult struct {
	// Name labels the cluster (platform.Cluster.Name).
	Name string
	// MaxProcs is the cluster's nominal processor count.
	MaxProcs int64
	// Speed is the cluster's resolved speed factor.
	Speed float64
	// Routed counts the jobs the router dispatched to this cluster.
	Routed int
	// Finished counts the routed jobs that completed (including jobs
	// killed mid-run by a cancellation).
	Finished int
	// Canceled counts scenario cancellations of jobs routed here (jobs
	// canceled before routing belong to no cluster).
	Canceled int
	// Corrections is the number of prediction-expiry corrections on
	// this cluster.
	Corrections int
	// Events counts the handled events that ran this cluster's
	// scheduling pass (deterministic, like Perf.Events).
	Events int64
	// PickCalls counts policy Pick invocations on this cluster — the
	// per-cluster slice of Perf.PickCalls.
	PickCalls int64
	// CapacitySteps is the cluster's realized capacity step function.
	CapacitySteps []CapacityStep
	// Makespan is the completion time of the cluster's last job.
	Makespan int64
}

// Run simulates the workload under the given configuration, preloading
// every job and retaining the full realized schedule on the Result. It
// returns an error only for structurally impossible inputs;
// scheduling-logic violations (overbooking, double starts) panic, since
// they are bugs. For bounded-memory replay of huge traces see RunStream.
func Run(w *trace.Workload, cfg Config) (*Result, error) {
	e, err := cfg.single(w.Name, w.MaxProcs)
	if err != nil {
		return nil, err
	}
	if err := e.preload(w, cfg.Script); err != nil {
		return nil, err
	}
	return e.run(noCommands{})
}

// RunStream simulates a lazily pulled workload in bounded memory: peak
// heap is O(live jobs + window) — queued and running jobs, their pending
// events, the scenario script and per-user predictor state — instead of
// O(trace). Submissions are pulled from src exactly when the event clock
// reaches them, and finished jobs are handed to cfg.Sink and forgotten,
// so Result.Jobs stays nil (Result.Streamed is set).
//
// The source must yield jobs in nondecreasing SubmitTime order (all
// workload.Source implementations do); an out-of-order record is an
// error. Decisions, metrics observations and the Result counters are
// identical to Run on the same job sequence — the property
// stream_diff_test.go enforces — with one deliberate exception: a
// script cancellation naming a job the source never delivers still pops
// here, while Run drops it at setup (see pushScript).
func RunStream(name string, maxProcs int64, src workload.Source, cfg Config) (*Result, error) {
	e, err := cfg.single(name, maxProcs)
	if err != nil {
		return nil, err
	}
	cmds, err := e.streamed(src, cfg.Script)
	if err != nil {
		return nil, err
	}
	return e.run(cmds)
}

// single builds the engine of a single-machine run: one unnamed cluster
// of maxProcs processors and no router.
func (cfg Config) single(name string, maxProcs int64) (*engine, error) {
	if err := checkConfig(cfg); err != nil {
		return nil, err
	}
	if maxProcs <= 0 {
		return nil, fmt.Errorf("sim: %q: machine size %d must be positive", name, maxProcs)
	}
	return newEngine(name, []platform.Cluster{{Procs: maxProcs}}, []Config{cfg}, nil, cfg), nil
}

// checkConfig validates one heuristic triple.
func checkConfig(cfg Config) error {
	if cfg.Policy == nil || cfg.Predictor == nil {
		return fmt.Errorf("sim: policy and predictor are required")
	}
	return nil
}
