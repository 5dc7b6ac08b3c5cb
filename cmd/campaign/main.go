// Command campaign runs the paper's full experiment campaign — every
// heuristic triple over the six Table-4 preset workloads — and prints the
// requested tables and figure series. With -robustness it instead runs
// the disruption sweep: a compact triple set under randomized node
// drains, maintenance windows and job cancellations at every intensity
// level, rendered as the robustness table.
//
// Usage:
//
//	campaign -jobs 3000                  # everything
//	campaign -jobs 3000 -table 1        # just Table 1
//	campaign -jobs 3000 -figure 4       # just Figure 4 (Curie ECDFs)
//	campaign -jobs 3000 -robustness     # disruption sweep
//
// With -clusters the campaign runs on a federated multi-cluster
// platform: each workload is routed across the listed clusters by every
// -routing policy, and the report gains per-cluster columns (AVEbsld
// and finished jobs per cluster) next to the global metrics:
//
//	campaign -clusters 100,64x1.5,slow=32x0.5 -routing least-loaded,queue-depth
//	campaign -spec specs/federated.yaml          # the same, declaratively
//
// Experiments can also be described declaratively: -spec runs the
// experiment in a versioned spec file (workloads, triples, disruption
// scenarios, grid dimensions, output settings — see specs/ for the
// canonical paper grid, the robustness sweep and the nightly CI
// campaign, and docs/WORKLOADS.md for the workload and clients
// schema). Flags given alongside -spec
// override the spec's fields; without -spec the flags describe the spec
// that runs, so both modes share one code path. -validate parses and
// resolves a spec, prints its shape, and exits without simulating:
//
//	campaign -spec specs/paper.yaml             # the paper grid
//	campaign -spec specs/paper.yaml -jobs 500   # ...at reduced scale
//	campaign -spec specs/nightly.yaml -validate # dry-run check
//
// Long campaigns are durable and cancellable: -out streams every
// completed cell to an append-only JSONL result journal, Ctrl-C stops
// the grid gracefully (in-flight simulations finish and are journaled),
// and -resume reloads the journal on restart so only the missing cells
// run — the final tables are identical to an uninterrupted run:
//
//	campaign -jobs 0 -out grid.jsonl            # interrupted with ^C...
//	campaign -jobs 0 -out grid.jsonl -resume    # ...picks up where it left off
//
// Big grids on small machines: -stream runs every cell on the
// bounded-memory streaming engine (identical decisions and tables,
// proven by the differential tests in internal/sim) so in-flight cells
// hold only their live-job window instead of trace-sized runtime state
// and retained schedules; the generated input traces themselves stay in
// memory, and the Table 8 / Figures 4-5 prediction analysis is a
// preloading path regardless. -memlimit MiB puts a soft runtime cap on
// the whole process:
//
//	campaign -jobs 0 -stream -memlimit 4096 -table 6   # full Table-4 sizes, capped
//
// Table/figure numbers follow the paper: tables 1, 6, 7, 8 and figures
// 3, 4, 5. Table 7 ends with the paper's headline claim: the
// cross-validated triple's average AVEbsld reduction against EASY and
// EASY++. Progress and an ETA are reported on stderr while the grid
// runs; -perf additionally prints the per-workload performance counters
// (events, Pick calls, sim wall time) every cell records.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime/debug"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/cli"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/spec"
	"repro/internal/workload"
)

func main() {
	// Ctrl-C (or SIGTERM) cancels the grid gracefully: in-flight cells
	// finish and are journaled, then the run reports how to resume.
	// After the first signal the handler is unregistered, so a second
	// Ctrl-C force-quits via the default disposition instead of being
	// swallowed while in-flight cells drain.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ctx.Done()
		stop()
	}()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: parse and validate the flags, build
// the spec they describe (or load -spec and lay the flags over it), and
// run that spec. Exit status 2 is a usage error, 1 a runtime failure.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jobs := fs.Int("jobs", 3000, "jobs per preset workload (0 = full Table-4 sizes; slow)")
	table := fs.Int("table", 0, "print only this table (1, 6, 7 or 8; 0 = all)")
	figure := fs.Int("figure", 0, "print only this figure (3, 4 or 5; 0 = all)")
	par := fs.Int("p", 0, "parallel simulations (0 = GOMAXPROCS)")
	robustness := fs.Bool("robustness", false, "run the disruption sweep instead of the paper tables")
	seed := fs.Uint64("seed", 1, "base seed: derives per-cell seeds, and the -robustness disruption scripts")
	out := fs.String("out", "", "append every completed cell to this JSONL result journal")
	resume := fs.Bool("resume", false, "skip cells already recorded in the -out journal")
	perf := fs.Bool("perf", false, "print per-workload performance counters to stderr")
	stream := fs.Bool("stream", false, "run every cell on the bounded-memory streaming engine (same tables, O(live jobs) per cell)")
	memLimit := fs.Int("memlimit", 0, "soft memory cap in MiB for the whole process (0 = none); pairs with -stream for big grids on small machines")
	specPath := fs.String("spec", "", "run the experiment described by this spec file (see specs/ and docs/WORKLOADS.md); other flags override its fields")
	validate := fs.Bool("validate", false, "with -spec: parse and resolve the spec, print its shape, and exit without simulating")
	clustersFlag := fs.String("clusters", "", "federated platform: comma-separated NAME=PROCS[xSPEED] entries (e.g. \"100,64x1.5,slow=32x0.5\"); the campaign grids over -routing policies and renders the federated table")
	routingFlag := fs.String("routing", "", "comma-separated routing policies in front of -clusters: "+sched.RouterNames+" (default round-robin)")
	traceFile := fs.String("trace", "", "append the structured decision trace (JSONL; summarize with tracestat) to this file")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) while the grid runs")
	if err := fs.Parse(args); err != nil {
		return cli.ParseExit(err)
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "campaign: "+format+"\n", a...)
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "campaign:", err)
		return 1
	}

	// Negative values used to be silently mapped to the defaults; they
	// are almost certainly typos, so reject them loudly.
	if *jobs < 0 {
		return usage("-jobs must be >= 0 (0 = full Table-4 sizes), got %d", *jobs)
	}
	if *par < 0 {
		return usage("-p must be >= 0 (0 = GOMAXPROCS), got %d", *par)
	}
	if *memLimit < 0 {
		return usage("-memlimit must be >= 0 MiB, got %d", *memLimit)
	}
	if msg := cli.TraceConflict(*traceFile, *cpuProfile, *memProfile); msg != "" {
		return usage("%s", msg)
	}
	var err error
	var clusters []platform.Cluster
	if *clustersFlag != "" {
		if clusters, err = platform.ParseClusters(*clustersFlag); err != nil {
			return usage("%v", err)
		}
	}
	var routings []string
	if *routingFlag != "" {
		if routings, err = parseRoutings(*routingFlag); err != nil {
			return usage("%v", err)
		}
	}

	var s *spec.Spec
	if *specPath == "" {
		kind := "campaign"
		if *robustness {
			kind = "robustness"
		}
		s = &spec.Spec{Kind: kind, Seed: *seed, Repeats: 1, Jobs: *jobs, Parallelism: *par, Stream: *stream,
			Clusters: clusters, Routings: routings, Trace: spec.Trace{File: *traceFile},
			Output: spec.Output{Journal: *out, Resume: *resume, Perf: *perf, Tables: selection(*table), Figures: selection(*figure)}}
	} else {
		// Flags the user actually passed become the outermost override
		// layer: flags > spec > include.
		var ov spec.Overrides
		tablesSet, figuresSet, robustnessSet := false, false, false
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "jobs":
				ov.Jobs = jobs
			case "seed":
				ov.Seed = seed
			case "p":
				ov.Parallelism = par
			case "out":
				ov.Journal = out
			case "resume":
				ov.Resume = resume
			case "perf":
				ov.Perf = perf
			case "stream":
				ov.Stream = stream
			case "table":
				ov.Tables = selection(*table)
				tablesSet = *table != 0
			case "figure":
				ov.Figures = selection(*figure)
				figuresSet = *figure != 0
			case "clusters":
				ov.Clusters = clusters
			case "routing":
				ov.Routings = routings
			case "trace":
				ov.Trace = traceFile
			case "robustness":
				robustnessSet = true
			}
		})
		if robustnessSet {
			return usage("-robustness conflicts with -spec (the spec's kind decides the grid)")
		}
		if s, err = spec.Load(*specPath); err != nil {
			return fail(err)
		}
		s.Apply(ov)
		// -table/-figure are selections, not additions: naming one
		// suppresses the spec's other axis, exactly as without -spec. A
		// zero selects nothing, so it leaves the spec's selection alone.
		if tablesSet && !figuresSet {
			s.Output.Figures = nil
		}
		if figuresSet && !tablesSet {
			s.Output.Tables = nil
		}
	}

	// The grid's rules, checked once the flags are laid over the spec.
	if err := s.Check(); err != nil {
		return usage("%v", err)
	}
	if *validate {
		if *specPath == "" {
			return usage("-validate requires -spec")
		}
		if err := printSpecShape(stdout, s); err != nil {
			return fail(err)
		}
		return 0
	}

	if *memLimit > 0 {
		// A soft cap: the runtime GCs harder as the heap approaches it
		// instead of overshooting into the OOM killer. The streaming
		// engine is what makes a tight cap feasible — preloaded grids
		// hold O(trace) per in-flight cell.
		debug.SetMemoryLimit(int64(*memLimit) << 20)
	}
	ob, err := cli.Start("campaign", stderr, *cpuProfile, *memProfile, *pprofAddr, s.Trace.File)
	if err != nil {
		return fail(err)
	}
	err = runSpec(ctx, s, ob.Tracer(), stdout, stderr)
	// The trace flush can fail the run after the tables have printed.
	if cerr := ob.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fail(err)
	}
	return 0
}

// selection turns a -table or -figure value into a selection list (0 =
// none named).
func selection(n int) []int {
	if n == 0 {
		return nil
	}
	return []int{n}
}

// parseRoutings splits and validates the -routing flag.
func parseRoutings(s string) ([]string, error) {
	var out []string
	seen := map[string]bool{}
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if _, err := sched.NewRouter(name); err != nil {
			return nil, err
		}
		if seen[name] {
			return nil, fmt.Errorf("-routing lists %q twice", name)
		}
		seen[name] = true
		out = append(out, name)
	}
	return out, nil
}

// runSpec generates the spec's workloads and runs the grid its kind
// selects: the disruption sweep or the campaign, on one machine or on
// the spec's federated platforms.
func runSpec(ctx context.Context, s *spec.Spec, tracer obs.Tracer, stdout, stderr io.Writer) error {
	ws, err := s.GenerateWorkloads()
	if err != nil {
		return err
	}
	// -perf implies stage profiling: the summary it prints is where the
	// per-stage latency histograms render.
	profile := s.Output.Perf || s.Trace.Profile
	if s.Kind == "robustness" {
		grids := make([]*campaign.Robustness, s.Repeats)
		for r := range grids {
			grids[r] = s.Robustness(ws, r)
			grids[r].Tracer, grids[r].Profile = tracer, profile
		}
		return runRobustnessGrids(ctx, grids, s.Output, stdout, stderr)
	}
	c := s.Campaign(ws)
	c.Tracer, c.Profile = tracer, profile
	return runCampaignGrid(ctx, c, s.Jobs, s.Output, stdout, stderr)
}

// printSpecShape is the -validate dry run: the spec resolved and
// summarized, with nothing simulated.
func printSpecShape(stdout io.Writer, s *spec.Spec) error {
	cfgs, err := s.WorkloadConfigs()
	if err != nil {
		return err
	}
	names := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		names[i] = fmt.Sprintf("%s(%d jobs)", cfg.Name, cfg.Jobs)
	}
	fmt.Fprintf(stdout, "spec %s: OK\n", s.Path)
	fmt.Fprintf(stdout, "  kind        %s\n", s.Kind)
	fmt.Fprintf(stdout, "  seed        %d\n", s.Seed)
	if s.Stream {
		fmt.Fprintf(stdout, "  stream      true\n")
	}
	fmt.Fprintf(stdout, "  workloads   %d: %s\n", len(cfgs), strings.Join(names, ", "))
	fmt.Fprintf(stdout, "  triples     %d\n", s.TripleCount())
	if s.Kind == "robustness" {
		fmt.Fprintf(stdout, "  scenarios   %d\n", s.ScenarioCount())
		fmt.Fprintf(stdout, "  repeats     %d\n", s.Repeats)
	}
	nfed := 1
	if s.Federated() {
		feds := s.Federations()
		nfed = len(feds)
		entries := make([]string, len(s.Clusters))
		for i, c := range s.Clusters {
			entries[i] = c.String()
		}
		policies := make([]string, len(feds))
		for i, f := range feds {
			policies[i] = f.Routing
		}
		fmt.Fprintf(stdout, "  clusters    %d (%d procs): %s\n", len(s.Clusters), platform.ClustersTotal(s.Clusters), strings.Join(entries, ", "))
		fmt.Fprintf(stdout, "  routing     %s\n", strings.Join(policies, ", "))
	}
	fmt.Fprintf(stdout, "  grid        %d cells\n", len(cfgs)*nfed*s.TripleCount()*s.ScenarioCount()*s.Repeats)
	if s.Output.Journal != "" {
		mode := ""
		if s.Output.Resume {
			mode = " (resume)"
		}
		fmt.Fprintf(stdout, "  journal     %s%s\n", s.Output.Journal, mode)
	}
	if s.Trace.File != "" {
		mode := ""
		if s.Trace.Profile {
			mode = " (profiled)"
		}
		fmt.Fprintf(stdout, "  trace       %s%s\n", s.Trace.File, mode)
	}
	return nil
}

// runCampaignGrid runs the campaign. A federated campaign renders the
// federated table with its per-cluster columns; a single-machine one
// renders the selected paper tables and figures (all of them when none
// is selected). jobs is the preset scaling of the Curie prediction
// series behind Table 8 and Figures 4-5.
func runCampaignGrid(ctx context.Context, c *campaign.Campaign, jobs int, o spec.Output, stdout, stderr io.Writer) error {
	federated := len(c.Federations) > 0
	tables, figures := o.Tables, o.Figures
	if len(tables) == 0 && len(figures) == 0 && !federated {
		tables, figures = []int{1, 6, 7, 8}, []int{3, 4, 5}
	}
	var results []campaign.RunResult
	if federated || hasAny(tables, 1, 6, 7) || hasAny(figures, 3) {
		journal, done, err := openJournal(o.Journal, o.Resume, stderr)
		if err != nil {
			return err
		}
		defer closeJournal(journal, stderr)
		c.Journal, c.Resume = journal, done
		c.Progress = progressReporter(stderr, "campaign")
		nw, nf, nt := len(c.Workloads), len(c.Federations), len(c.TripleAxis())
		if federated {
			fmt.Fprintf(stderr, "campaign: running %d federated simulations (%d workloads x %d federations x %d triples)...\n", nw*nf*nt, nw, nf, nt)
		} else {
			fmt.Fprintf(stderr, "campaign: running %d simulations (%d workloads x %d triples)...\n", nw*nt, nw, nt)
		}
		results, err = c.Run(ctx)
		if err != nil {
			return gridFailed(err, len(results), o.Journal)
		}
		if o.Perf {
			fmt.Fprintln(stderr, report.PerfSummary(results))
		}
	}
	if federated {
		fmt.Fprintln(stdout, report.FederatedTable(results))
		return nil
	}

	if hasAny(tables, 1) {
		fmt.Fprintln(stdout, report.Table1(results))
	}
	if hasAny(tables, 6) {
		fmt.Fprintln(stdout, report.Table6(results))
	}
	if hasAny(tables, 7) {
		cv, err := campaign.LeaveOneOut(results)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, report.Table7(cv, results))
	}
	if hasAny(figures, 3) {
		fmt.Fprintln(stdout, report.Figure3(results, "SDSC-BLUE", "Metacentrum"))
	}
	// Multi-client workloads (a spec with clients: blocks) get their
	// per-client decomposition next to the global tables; single-
	// population grids render nothing extra.
	if t := report.ClientTable(results); t != "" {
		fmt.Fprintln(stdout, t)
	}

	if hasAny(tables, 8) || hasAny(figures, 4, 5) {
		cfg, err := workload.Scaled("Curie", jobs)
		if err != nil {
			return err
		}
		w, err := workload.Generate(cfg)
		if err != nil {
			return err
		}
		series, err := report.AnalyzePredictions(w)
		if err != nil {
			return err
		}
		if hasAny(tables, 8) {
			fmt.Fprintln(stdout, report.Table8(series))
		}
		if hasAny(figures, 4) {
			fmt.Fprintln(stdout, report.Figure4(series))
		}
		if hasAny(figures, 5) {
			fmt.Fprintln(stdout, report.Figure5(series))
		}
	}
	return nil
}

// runRobustnessGrids runs one disruption sweep per repeat (sharing the
// journal), cell-averages them, and renders the robustness table.
func runRobustnessGrids(ctx context.Context, grids []*campaign.Robustness, o spec.Output, stdout, stderr io.Writer) error {
	journal, done, err := openJournal(o.Journal, o.Resume, stderr)
	if err != nil {
		return err
	}
	defer closeJournal(journal, stderr)
	nw, triples, cols := len(grids[0].Workloads), len(grids[0].TripleAxis()), len(grids[0].ScenarioAxis())
	fmt.Fprintf(stderr, "campaign: running %d disrupted simulations (%d workloads x %d triples x %d scenarios x %d repeats)...\n",
		nw*triples*cols*len(grids), nw, triples, cols, len(grids))

	var runs [][]campaign.RobustnessResult
	var flat []campaign.RunResult
	for i, r := range grids {
		r.Journal, r.Resume = journal, done
		r.Progress = progressReporter(stderr, fmt.Sprintf("robustness %d/%d", i+1, len(grids)))
		results, err := r.Run(ctx)
		if err != nil {
			return gridFailed(err, len(results), o.Journal)
		}
		runs = append(runs, results)
		for _, res := range results {
			flat = append(flat, res.RunResult)
		}
	}
	if o.Perf {
		fmt.Fprintln(stderr, report.PerfSummary(flat))
	}
	merged, err := campaign.AverageRobustness(runs)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, report.RobustnessTable(merged))
	return nil
}

// hasAny reports whether the selection contains any of the wanted ids.
func hasAny(selected []int, wanted ...int) bool {
	for _, s := range selected {
		for _, w := range wanted {
			if s == w {
				return true
			}
		}
	}
	return false
}

// openJournal opens the -out journal (if any) and loads the completed
// cells of a previous run when -resume is set.
func openJournal(out string, resume bool, stderr io.Writer) (*campaign.Journal, map[string]campaign.CellRecord, error) {
	if out == "" {
		return nil, nil, nil
	}
	var done map[string]campaign.CellRecord
	if resume {
		var dropped bool
		var err error
		done, dropped, err = campaign.LoadJournal(out)
		switch {
		case errors.Is(err, os.ErrNotExist):
			// First run of an always-resume wrapper: nothing journaled
			// yet is a fresh start, not a failure.
			fmt.Fprintf(stderr, "campaign: resume: no journal at %s yet, starting fresh\n", out)
		case err != nil:
			return nil, nil, err
		default:
			msg := fmt.Sprintf("campaign: resume: %d journaled cells loaded from %s", len(done), out)
			if dropped {
				msg += " (dropped a truncated final line)"
			}
			fmt.Fprintln(stderr, msg)
		}
	}
	j, err := campaign.OpenJournal(out)
	if err != nil {
		return nil, nil, err
	}
	return j, done, nil
}

func closeJournal(j *campaign.Journal, stderr io.Writer) {
	if j == nil {
		return
	}
	if err := j.Close(); err != nil {
		fmt.Fprintln(stderr, "campaign: journal:", err)
	}
}

// gridFailed describes a canceled or partially failed grid. Completed
// cells are already in the journal (when -out is set), so the message
// points at -resume.
func gridFailed(err error, completed int, out string) error {
	if errors.Is(err, context.Canceled) {
		err = fmt.Errorf("interrupted after %d completed cells", completed)
	} else {
		err = fmt.Errorf("%v (%d cells completed)", err, completed)
	}
	if out != "" {
		err = fmt.Errorf("%w\ncampaign: completed cells are journaled in %s; rerun with -resume to continue", err, out)
	}
	return err
}

// progressReporter returns a goroutine-safe Progress callback that
// writes throttled progress/ETA lines to stderr — minutes-long grids
// should not be silent until the final tables print.
func progressReporter(stderr io.Writer, label string) func(done, total int) {
	var mu sync.Mutex
	start := time.Now()
	lastPrint := start
	return func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		now := time.Now()
		if done != total && now.Sub(lastPrint) < 2*time.Second {
			return
		}
		lastPrint = now
		elapsed := now.Sub(start)
		msg := fmt.Sprintf("%s: %d/%d (%.0f%%) elapsed %s", label, done, total,
			100*float64(done)/float64(total), elapsed.Round(time.Second))
		if done > 0 && done < total {
			eta := time.Duration(float64(elapsed) * float64(total-done) / float64(done))
			msg += fmt.Sprintf(" eta %s", eta.Round(time.Second))
		}
		fmt.Fprintln(stderr, msg)
	}
}
