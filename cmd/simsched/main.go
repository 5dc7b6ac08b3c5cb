// Command simsched runs a single scheduling simulation — one workload,
// one heuristic triple — and prints the schedule metrics. The workload is
// either a generated preset or an SWF file from disk (e.g. a real log
// downloaded from the Parallel Workloads Archive).
//
// Usage:
//
//	simsched -preset Curie -jobs 5000 -triple best
//	simsched -swf CTC-SP2-1996-3.1-cln.swf -triple easy++
//	simsched -swf CTC-SP2-1996-3.1-cln.swf -status replay        # honor the log's cancellations
//	simsched -preset KTH-SP2 -disrupt moderate -disrupt-seed 7   # synthetic drains + cancels
//	simsched -preset KTH-SP2 -policy easy-sjbf -predictor ml -loss "over=sq,under=lin,w=largearea" -corrector incremental
//	simsched -swf huge.swf -stream                               # bounded memory: O(live jobs), any trace length
//	simsched -preset huge-synthetic -jobs 0 -stream              # a million generated jobs, streamed
//
// With -wspec the workload comes from an experiment spec file instead
// of -preset: the spec must resolve to exactly one workload entry, and
// multi-client entries (a clients: block — see docs/WORKLOADS.md) get a
// per-client metrics split next to the global numbers:
//
//	simsched -wspec specs/clients.yaml -triple best -stream
//
// With -clusters the run is federated: jobs are routed across the
// listed clusters by the -routing policy, each cluster runs its own
// policy session, and the output gains a per-cluster split. -disrupt
// then generates an independent disruption script per cluster (drains
// scaled to each cluster's size, under per-cluster derived seeds):
//
//	simsched -preset KTH-SP2 -clusters 100,64x1.5,slow=32x0.5 -routing least-loaded
//	simsched -preset KTH-SP2 -clusters 100,100 -disrupt moderate
//
// Contradictory flag combinations are rejected up front with exit
// status 2 (usage error) rather than silently ignored: -stream cannot
// honor -disrupt or -status replay (both sample the whole trace),
// -triple excludes the per-axis -policy/-predictor/-corrector/-loss
// flags, -maxprocs and -status only describe -swf inputs, -preset and
// -jobs only describe generated ones, -disrupt-seed needs -disrupt,
// -routing needs -clusters, and -wspec supplies the whole workload so
// it excludes -preset/-jobs/-swf/-maxprocs/-status.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/correct"
	"repro/internal/metrics"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/swf"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is the parsed flag set; run validates the combinations before
// dispatching.
type options struct {
	preset      string
	jobs        int
	wspec       string
	swfPath     string
	maxProcs    int64
	status      string
	disrupt     string
	disruptSeed uint64
	triple      string
	policy      string
	predictor   string
	lossName    string
	corrector   string
	stream      bool
	clusters    []platform.Cluster
	routing     string
	traceFile   string
	cpuProfile  string
	memProfile  string
	pprofAddr   string
	// tr is the triple -triple names or the per-axis flags assemble.
	tr core.Triple
	// swfFile is the open -swf trace; run closes it when the run ends.
	swfFile *os.File
	// tracer is the opened flight recorder (nil = tracing off).
	tracer obs.Tracer
}

// run is the testable entry point: parse, validate the flag surface,
// dispatch. Exit status 2 is a usage error, 1 a runtime failure.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simsched", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.preset, "preset", "KTH-SP2", "workload preset")
	fs.IntVar(&o.jobs, "jobs", 5000, "scale the preset to this many jobs (0 = full size)")
	fs.StringVar(&o.wspec, "wspec", "", "generate the workload of this spec file (must resolve to exactly one workload entry; clients: blocks get a per-client split)")
	fs.StringVar(&o.swfPath, "swf", "", "load this SWF file instead of generating a preset")
	fs.Int64Var(&o.maxProcs, "maxprocs", 0, "machine size override for -swf (0 = use header)")
	fs.StringVar(&o.status, "status", "keep", "how -swf honors cancelled/failed jobs: keep | skip | truncate | replay (replay re-kills never-ran cancelled jobs at their logged instant)")
	fs.StringVar(&o.disrupt, "disrupt", "none", "synthetic disruption intensity: none | light | moderate | heavy")
	fs.Uint64Var(&o.disruptSeed, "disrupt-seed", 1, "seed for the synthetic disruption generator")
	fs.StringVar(&o.triple, "triple", "", "named triple: "+core.TripleNames)
	fs.StringVar(&o.policy, "policy", "easy-sjbf", "scheduling policy: fcfs | easy | easy-sjbf | conservative")
	fs.StringVar(&o.predictor, "predictor", "ml", "prediction technique: clairvoyant | requested | ave2 | ml")
	fs.StringVar(&o.lossName, "loss", ml.ELoss.Name(), "ML loss, e.g. \"over=sq,under=lin,w=largearea\"")
	fs.StringVar(&o.corrector, "corrector", "incremental", "correction: requested | incremental | doubling")
	fs.BoolVar(&o.stream, "stream", false, "bounded-memory run: pull the workload lazily (SWF from disk, or the streaming generator for presets) and compute metrics one-pass; peak memory is O(live jobs), so million-job traces fit")
	clustersFlag := fs.String("clusters", "", "federated platform: comma-separated NAME=PROCS[xSPEED] entries (e.g. \"100,64x1.5,slow=32x0.5\"); empty = classic single machine")
	fs.StringVar(&o.routing, "routing", "", "routing policy in front of -clusters: "+sched.RouterNames+" (default round-robin)")
	fs.StringVar(&o.traceFile, "trace", "", "append the structured decision trace (JSONL; summarize with tracestat) to this file")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file at exit")
	fs.StringVar(&o.pprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) while the run executes")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "simsched: "+format+"\n", a...)
		fs.Usage()
		return 2
	}

	// Reject contradictory combinations loudly: every one of these used
	// to silently ignore one of its flags.
	if o.stream && o.disrupt != "none" {
		return usage("-stream cannot generate disruption scripts (they sample the whole trace); drop -disrupt")
	}
	if o.stream && o.status == "replay" {
		return usage("-stream cannot replay logged cancellations (the script needs the whole trace); use -status keep/skip/truncate")
	}
	if o.triple != "" {
		for _, axis := range []string{"policy", "predictor", "corrector", "loss"} {
			if set[axis] {
				return usage("-triple names a complete (policy, predictor, corrector) bundle; drop -%s", axis)
			}
		}
	}
	if o.wspec != "" {
		for _, f := range []string{"preset", "jobs", "swf", "maxprocs", "status"} {
			if set[f] {
				return usage("-wspec supplies the whole workload; drop -%s", f)
			}
		}
	}
	if o.swfPath == "" {
		if set["maxprocs"] {
			return usage("-maxprocs overrides an SWF header; it needs -swf")
		}
		if set["status"] {
			return usage("-status filters an SWF log; it needs -swf")
		}
	} else {
		if set["preset"] {
			return usage("-preset generates a workload; it conflicts with -swf")
		}
		if set["jobs"] {
			return usage("-jobs scales a generated preset; it conflicts with -swf")
		}
	}
	if o.jobs < 0 {
		return usage("-jobs must be >= 0 (0 = full size), got %d", o.jobs)
	}
	if set["disrupt-seed"] && o.disrupt == "none" {
		return usage("-disrupt-seed seeds the disruption generator; it needs -disrupt")
	}
	if o.routing != "" && *clustersFlag == "" {
		return usage("-routing needs -clusters (a single machine has nothing to route)")
	}
	if msg := cli.TraceConflict(o.traceFile, o.cpuProfile, o.memProfile); msg != "" {
		return usage("%s", msg)
	}
	var err error
	if *clustersFlag != "" {
		if o.clusters, err = platform.ParseClusters(*clustersFlag); err != nil {
			return usage("%v", err)
		}
		if o.routing == "" {
			o.routing = "round-robin"
		}
		if _, err := sched.NewRouter(o.routing); err != nil {
			return usage("%v", err)
		}
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "simsched:", err)
		return 1
	}
	if o.triple != "" {
		if o.tr, err = core.TripleByName(o.triple); err != nil {
			return usage("%v", err)
		}
	} else if o.tr, err = axisTriple(o.policy, o.predictor, o.lossName, o.corrector); err != nil {
		return fail(err)
	}
	if o.swfPath != "" {
		if o.swfFile, err = os.Open(o.swfPath); err != nil {
			return fail(err)
		}
		defer o.swfFile.Close()
	}

	ob, err := cli.Start("simsched", stderr, o.cpuProfile, o.memProfile, o.pprofAddr, o.traceFile)
	if err != nil {
		return fail(err)
	}
	o.tracer = ob.Tracer()

	switch {
	case o.stream && len(o.clusters) > 0:
		err = runFederatedStreaming(o, stdout)
	case o.stream:
		err = runStreaming(o, stdout)
	case len(o.clusters) > 0:
		err = runFederated(o, stdout)
	default:
		err = runOnce(o, stdout)
	}
	if cerr := ob.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fail(err)
	}
	return 0
}

// runOnce is the classic single-machine preloading run.
func runOnce(o options, stdout io.Writer) error {
	w, script, err := loadWorkload(o)
	if err != nil {
		return err
	}
	cfg := o.tr.Config()
	if o.disrupt != "none" {
		in, ok := scenario.IntensityByName(o.disrupt)
		if !ok {
			return fmt.Errorf("unknown disruption intensity %q", o.disrupt)
		}
		script = scenario.Merge(fmt.Sprintf("%s+%s", o.disrupt, o.status), script, scenario.Generate(w, in, o.disruptSeed))
	}
	cfg.Script = script
	cfg.Tracer = o.tracer

	res, err := sim.Run(w, cfg)
	if err != nil {
		return err
	}
	if errs := sim.ValidateResult(res); len(errs) != 0 {
		return fmt.Errorf("schedule invalid: %v", errs[0])
	}
	fmt.Fprintf(stdout, "workload      %s (%d jobs, %d procs)\n", w.Name, len(w.Jobs), w.MaxProcs)
	fmt.Fprintf(stdout, "triple        %s\n", res.Triple)
	if !script.Empty() {
		drains, restores, cancels := script.Counts()
		fmt.Fprintf(stdout, "scenario      %s (%d drains, %d restores, %d cancel events)\n", res.Scenario, drains, restores, cancels)
		fmt.Fprintf(stdout, "canceled      %d jobs, %d capacity changes\n", res.Canceled, len(res.CapacitySteps))
	}
	fmt.Fprintf(stdout, "AVEbsld       %.2f\n", metrics.AVEbsld(res))
	fmt.Fprintf(stdout, "max bsld      %.1f\n", metrics.MaxBsld(res))
	fmt.Fprintf(stdout, "mean wait     %.0f s\n", metrics.MeanWait(res))
	fmt.Fprintf(stdout, "utilization   %.3f\n", metrics.Utilization(res))
	fmt.Fprintf(stdout, "corrections   %d\n", res.Corrections)
	fmt.Fprintf(stdout, "prediction MAE %.0f s, mean E-Loss %.3g\n", metrics.MAE(res.Jobs), metrics.MeanELoss(res.Jobs))
	if len(w.Clients) > 0 {
		// Fold the finished jobs through the same per-client collectors
		// the streaming path uses as a sink, so both paths print the
		// identical split.
		pc := metrics.NewPerClient(w.Clients)
		for _, j := range res.Jobs {
			if j.Finished {
				pc.Observe(j)
			}
		}
		report.ClientSplit(stdout, pc)
	}
	return nil
}

// runFederated is the federated preloading run: one workload routed
// across -clusters, validated cluster by cluster.
func runFederated(o options, stdout io.Writer) error {
	w, script, err := loadWorkload(o)
	if err != nil {
		return err
	}
	fed, err := buildFederatedConfig(o)
	if err != nil {
		return err
	}
	if o.disrupt != "none" {
		script, err = federatedDisruption(o, w, script)
		if err != nil {
			return err
		}
	}
	fed.Script = script
	col := metrics.NewFederated(len(o.clusters))
	fed.Sink = col

	res, err := sim.RunFederated(w, fed)
	if err != nil {
		return err
	}
	if errs := sim.ValidateResult(res); len(errs) != 0 {
		return fmt.Errorf("schedule invalid: %v", errs[0])
	}
	fmt.Fprintf(stdout, "workload      %s (%d jobs, %d procs over %d clusters)\n", w.Name, len(w.Jobs), res.MaxProcs, len(res.Clusters))
	fmt.Fprintf(stdout, "routing       %s\n", res.Routing)
	fmt.Fprintf(stdout, "triple        %s\n", res.Triple)
	if script != nil && !script.Empty() {
		drains, restores, cancels := script.Counts()
		fmt.Fprintf(stdout, "scenario      %s (%d drains, %d restores, %d cancel events)\n", res.Scenario, drains, restores, cancels)
		fmt.Fprintf(stdout, "canceled      %d jobs\n", res.Canceled)
	}
	g := col.Global()
	fmt.Fprintf(stdout, "AVEbsld       %.2f\n", g.AVEbsld())
	fmt.Fprintf(stdout, "max bsld      %.1f\n", g.MaxBsld())
	fmt.Fprintf(stdout, "mean wait     %.0f s\n", g.MeanWait())
	fmt.Fprintf(stdout, "utilization   %.3f\n", g.Utilization(res.Makespan, res.MaxProcs))
	fmt.Fprintf(stdout, "corrections   %d\n", res.Corrections)
	printClusterSplit(stdout, res, col)
	return nil
}

// runFederatedStreaming is the federated bounded-memory run.
func runFederatedStreaming(o options, stdout io.Writer) error {
	fed, err := buildFederatedConfig(o)
	if err != nil {
		return err
	}
	col := metrics.NewFederated(len(o.clusters))
	fed.Sink = col

	// A multi-client -wspec entry streams through the federation too;
	// the per-client split is single-machine output (the federated sink
	// splits by cluster instead), so the client names are not used here.
	name, _, src, _, err := buildStreamSource(o)
	if err != nil {
		return err
	}
	res, err := sim.RunFederatedStream(name, src, fed)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "workload      %s (streamed, %d jobs finished, %d procs over %d clusters)\n", name, res.Finished, res.MaxProcs, len(res.Clusters))
	fmt.Fprintf(stdout, "routing       %s\n", res.Routing)
	fmt.Fprintf(stdout, "triple        %s\n", res.Triple)
	g := col.Global()
	fmt.Fprintf(stdout, "AVEbsld       %.2f\n", g.AVEbsld())
	fmt.Fprintf(stdout, "max bsld      %.1f\n", g.MaxBsld())
	fmt.Fprintf(stdout, "mean wait     %.0f s\n", g.MeanWait())
	fmt.Fprintf(stdout, "utilization   %.3f\n", g.Utilization(res.Makespan, res.MaxProcs))
	fmt.Fprintf(stdout, "corrections   %d\n", res.Corrections)
	printClusterSplit(stdout, res, col)
	return nil
}

// buildFederatedConfig assembles the federated engine configuration.
// Session builds a fresh policy/predictor per cluster — sessions hold
// state, so sharing one across clusters would corrupt both.
func buildFederatedConfig(o options) (sim.FederatedConfig, error) {
	router, err := sched.NewRouter(o.routing)
	if err != nil {
		return sim.FederatedConfig{}, err
	}
	return sim.FederatedConfig{
		Clusters: o.clusters,
		Router:   router,
		Tracer:   o.tracer,
		Session:  o.tr.Config,
	}, nil
}

// federatedDisruption generates one disruption script per cluster —
// drains scaled to that cluster's size, targeted at it by name, under a
// seed derived per cluster — and merges them with any replay script.
// Cancellations are drawn once (on the first cluster's script): a
// cancel targets a job wherever it was routed, so drawing per cluster
// would multiply the cancel rate by the cluster count.
func federatedDisruption(o options, w *trace.Workload, script *scenario.Script) (*scenario.Script, error) {
	in, ok := scenario.IntensityByName(o.disrupt)
	if !ok {
		return nil, fmt.Errorf("unknown disruption intensity %q", o.disrupt)
	}
	parts := []*scenario.Script{script}
	for ci, cl := range o.clusters {
		cin := in
		if ci > 0 {
			cin.CancelFrac = 0
		}
		cw := *w
		cw.MaxProcs = cl.Procs
		gen := scenario.Generate(&cw, cin, rng.DeriveSeed(o.disruptSeed, uint64(ci)))
		parts = append(parts, scenario.Retarget(gen, cl.Name))
	}
	return scenario.Merge(fmt.Sprintf("%s+%s/federated", o.disrupt, o.status), parts...), nil
}

// printClusterSplit renders the per-cluster lines of a federated run.
func printClusterSplit(stdout io.Writer, res *sim.Result, col *metrics.Federated) {
	for ci := range res.Clusters {
		cr := &res.Clusters[ci]
		cc := col.Clusters[ci]
		fmt.Fprintf(stdout, "cluster %-10s %4d procs x%-4g  routed %6d  finished %6d  AVEbsld %6.2f  util %.3f\n",
			cr.Name, cr.MaxProcs, cr.Speed, cr.Routed, cr.Finished, cc.AVEbsld(), cc.Utilization(cr.Makespan, cr.MaxProcs))
	}
}

// runStreaming is the -stream path: the workload is never materialized.
// SWF files are scanned from disk through the streaming status/clean
// filters; presets use the bounded-memory generator (same statistical
// structure as the preloading generator, arrival draws differ). The
// -disrupt and -status replay modes need the whole trace to derive
// their scripts and are rejected at flag validation.
func runStreaming(o options, stdout io.Writer) error {
	cfg := o.tr.Config()
	name, mp, src, clients, err := buildStreamSource(o)
	if err != nil {
		return err
	}
	col := metrics.NewCollector()
	cfg.Sink = col
	var pc *metrics.PerClient
	if len(clients) > 0 {
		pc = metrics.NewPerClient(clients)
		cfg.Sink = pc
		col = pc.Overall()
	}
	cfg.Tracer = o.tracer

	res, err := sim.RunStream(name, mp, src, cfg)
	if err != nil {
		return err
	}
	report.StreamSummary(stdout, report.CollectStreamRun(name, res.MaxProcs, res.Triple, res.Makespan, res.Corrections, col))
	if pc != nil {
		report.ClientSplit(stdout, pc)
	}
	return nil
}

// buildStreamSource assembles the lazy job pipeline and resolves the
// machine size (peeking one record so the SWF header is available).
// clients is non-nil only for a multi-client -wspec entry: the client
// names, in client-index order, for the per-client metrics split.
func buildStreamSource(o options) (name string, mp int64, src workload.Source, clients []string, err error) {
	if o.wspec != "" {
		e, err := resolveWSpec(o.wspec)
		if err != nil {
			return "", 0, nil, nil, err
		}
		if len(e.Clients) > 0 {
			m, err := workload.NewMultiSource(e.Config, e.Clients)
			if err != nil {
				return "", 0, nil, nil, err
			}
			return e.Config.Name, e.Config.MaxProcs, m, m.ClientNames(), nil
		}
		g, err := workload.NewGenSource(e.Config)
		if err != nil {
			return "", 0, nil, nil, err
		}
		return e.Config.Name, e.Config.MaxProcs, g, nil, nil
	}
	if o.swfPath == "" {
		cfg, err := workload.Scaled(o.preset, o.jobs)
		if err != nil {
			return "", 0, nil, nil, err
		}
		g, err := workload.NewGenSource(cfg)
		if err != nil {
			return "", 0, nil, nil, err
		}
		return cfg.Name, cfg.MaxProcs, g, nil, nil
	}

	mode, err := swf.ParseStatusMode(o.status)
	if err != nil {
		return "", 0, nil, nil, err
	}
	sc := swf.NewScanner(o.swfFile)
	first, err := sc.Next()
	if err == io.EOF {
		return "", 0, nil, nil, fmt.Errorf("%s: no jobs", o.swfPath)
	}
	if err != nil {
		return "", 0, nil, nil, err
	}
	mp = o.maxProcs
	if mp <= 0 {
		mp = sc.Header().Procs()
	}
	if mp <= 0 {
		return "", 0, nil, nil, fmt.Errorf("%s: machine size unknown (no MaxProcs/MaxNodes header; pass -maxprocs)", o.swfPath)
	}
	src = workload.Prepend([]swf.Job{first}, workload.NewScanSource(sc))
	src, err = workload.NewStatusSource(src, mode)
	if err != nil {
		return "", 0, nil, nil, err
	}
	return o.swfPath, mp, workload.NewCleanSource(src, mp), nil, nil
}

// loadWorkload builds the scheduling problem. For SWF files the status
// mode is applied before cleaning; replay mode additionally derives the
// cancellation script from the log's own status fields. A -wspec entry
// is generated via the spec resolver, so clients: blocks work here too.
func loadWorkload(o options) (*trace.Workload, *scenario.Script, error) {
	if o.wspec != "" {
		e, err := resolveWSpec(o.wspec)
		if err != nil {
			return nil, nil, err
		}
		var w *trace.Workload
		if len(e.Clients) > 0 {
			w, err = workload.GenerateMulti(e.Config, e.Clients)
		} else {
			w, err = workload.Generate(e.Config)
		}
		return w, nil, err
	}
	if o.swfPath != "" {
		mode, err := swf.ParseStatusMode(o.status)
		if err != nil {
			return nil, nil, err
		}
		raw, err := swf.Parse(o.swfFile)
		if err != nil {
			return nil, nil, err
		}
		w, err := trace.FromSWF(o.swfPath, swf.ApplyStatus(raw, mode), o.maxProcs)
		if err != nil {
			return nil, nil, err
		}
		var script *scenario.Script
		if mode == swf.StatusReplay {
			script = scenario.CancellationsFromSWF(o.swfPath+"/cancellations", raw)
		}
		return w, script, nil
	}
	cfg, err := workload.Scaled(o.preset, o.jobs)
	if err != nil {
		return nil, nil, err
	}
	w, err := workload.Generate(cfg)
	return w, nil, err
}

// resolveWSpec loads a spec file and demands exactly one workload entry
// — simsched runs one simulation, so a multi-workload spec is a grid
// job for cmd/campaign instead.
func resolveWSpec(path string) (spec.ResolvedWorkload, error) {
	s, err := spec.Load(path)
	if err != nil {
		return spec.ResolvedWorkload{}, err
	}
	entries, err := s.ResolvedWorkloads()
	if err != nil {
		return spec.ResolvedWorkload{}, err
	}
	if len(entries) != 1 {
		return spec.ResolvedWorkload{}, fmt.Errorf("%s resolves to %d workloads; -wspec needs exactly one (grids belong to cmd/campaign)", path, len(entries))
	}
	return entries[0], nil
}

// axisTriple assembles the triple the per-axis flags describe.
func axisTriple(policy, predictor, lossName, corrector string) (core.Triple, error) {
	var t core.Triple
	switch strings.ToLower(predictor) {
	case "clairvoyant":
		t.Predictor = core.PredClairvoyant
	case "requested":
		t.Predictor = core.PredRequested
	case "ave2":
		t.Predictor = core.PredAve2
	case "ml":
		t.Predictor = core.PredLearning
		loss, err := findLoss(lossName)
		if err != nil {
			return t, err
		}
		t.Loss = loss
	default:
		return t, fmt.Errorf("unknown predictor %q", predictor)
	}
	switch strings.ToLower(corrector) {
	case "requested":
		t.Corrector = correct.RequestedTime{}
	case "incremental":
		t.Corrector = correct.Incremental{}
	case "doubling":
		t.Corrector = correct.RecursiveDoubling{}
	default:
		return t, fmt.Errorf("unknown corrector %q", corrector)
	}
	switch strings.ToLower(policy) {
	case "fcfs":
		t.NoBackfill = true
	case "easy":
		t.Backfill = sched.FCFSOrder
	case "easy-sjbf":
		t.Backfill = sched.SJBFOrder
	case "conservative":
		t.Conservative = true
	default:
		return t, fmt.Errorf("unknown policy %q", policy)
	}
	return t, nil
}

func findLoss(name string) (ml.Loss, error) {
	for _, l := range ml.AllLosses() {
		if l.Name() == name {
			return l, nil
		}
	}
	return ml.Loss{}, fmt.Errorf("unknown loss %q (see ml.AllLosses)", name)
}
