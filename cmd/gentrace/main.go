// Command gentrace generates a synthetic SWF workload from one of the
// Table-4 presets (or a custom size) and writes it to stdout or a file.
// With -spec it instead materializes every workload of an experiment
// spec file (see specs/ and docs/WORKLOADS.md) — including inline
// custom generator configs and multi-client clients blocks no preset
// flag can express. Multi-client workloads are written with one
// Partition comment header per client (name, job count, realized rate
// share, arrival process), so generated traces are self-describing.
//
// Usage:
//
//	gentrace -preset Curie -jobs 5000 -o curie.swf
//	gentrace -preset KTH-SP2 -stats
//	gentrace -spec specs/ci-smoke.yaml -o traces/           # one .swf per workload
//	gentrace -spec specs/clients.yaml -o traces/            # multi-client, per-client headers
//	gentrace -spec specs/nightly.yaml -stats
//	gentrace -preset huge-synthetic -stream -o huge.swf     # 1M jobs, bounded memory
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/cli"
	"repro/internal/spec"
	"repro/internal/swf"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point. Exit status 2 is a usage error, 1 a
// runtime failure.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gentrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	preset := fs.String("preset", "KTH-SP2", "workload preset (one of "+fmt.Sprint(workload.PresetNames())+")")
	jobs := fs.Int("jobs", 0, "scale the preset down to this many jobs (0 = full Table-4 size)")
	seed := fs.Uint64("seed", 0, "override the preset's deterministic seed (0 = keep)")
	out := fs.String("o", "", "output SWF path (default stdout); with a multi-workload -spec, a directory")
	stats := fs.Bool("stats", false, "print workload statistics instead of the trace")
	specPath := fs.String("spec", "", "generate the workloads of this experiment spec instead of -preset")
	stream := fs.Bool("stream", false, "generate straight to disk in bounded memory (streaming generator; arrival draws differ from the in-memory generator, determinism per seed is identical)")
	if err := fs.Parse(args); err != nil {
		return cli.ParseExit(err)
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "gentrace: "+format+"\n", a...)
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "gentrace:", err)
		return 1
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *stream && *stats {
		return usage("-stream cannot compute whole-trace statistics; drop -stats")
	}
	if *jobs < 0 {
		return usage("-jobs must be >= 0 (0 = full Table-4 size), got %d", *jobs)
	}
	if *specPath != "" && set["preset"] {
		return usage("-preset conflicts with -spec (the spec lists its workloads)")
	}

	entries, err := resolveEntries(*specPath, *preset, *jobs, set["jobs"], *seed)
	if err != nil {
		return fail(err)
	}
	if *stats {
		for i, e := range entries {
			if i > 0 {
				fmt.Fprintln(stdout)
			}
			w, err := generate(e)
			if err != nil {
				return fail(err)
			}
			printStats(stdout, w)
		}
		return 0
	}

	// With -spec, -o is always a directory (one .swf per workload), no
	// matter how many workloads the spec resolves to — so a script does
	// not break when the spec's workload list shrinks to one. Without
	// -spec, -o stays a single file path.
	if *specPath == "" || (*out == "" && len(entries) == 1) {
		if err := writeEntry(entries[0], *stream, *out, stdout); err != nil {
			return fail(err)
		}
		return 0
	}
	if *out == "" {
		return usage("the spec has %d workloads; pass -o DIR to write one .swf per workload", len(entries))
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return fail(err)
	}
	suffix := ""
	if *stream {
		suffix = ", streamed"
	}
	for _, e := range entries {
		path := filepath.Join(*out, e.Config.Name+".swf")
		if err := writeEntry(e, *stream, path, stdout); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "gentrace: wrote %s (%d jobs%s)\n", path, e.Config.Jobs, suffix)
	}
	return 0
}

// resolveEntries turns the flags — or the spec, with -jobs (when set)
// and -seed as overrides — into the workloads (config + clients) to
// materialize.
func resolveEntries(specPath, preset string, jobs int, jobsSet bool, seed uint64) ([]spec.ResolvedWorkload, error) {
	var entries []spec.ResolvedWorkload
	if specPath == "" {
		cfg, err := workload.Scaled(preset, jobs)
		if err != nil {
			return nil, err
		}
		entries = []spec.ResolvedWorkload{{Config: cfg}}
	} else {
		s, err := spec.Load(specPath)
		if err != nil {
			return nil, err
		}
		if jobsSet {
			s.Apply(spec.Overrides{Jobs: &jobs})
		}
		if entries, err = s.ResolvedWorkloads(); err != nil {
			return nil, err
		}
	}
	if seed != 0 {
		for i := range entries {
			entries[i].Config.Seed = seed
		}
	}
	return entries, nil
}

// writeEntry writes one workload as SWF to out ("" = stdout). Streamed
// and multi-client entries go through the bounded-memory generator:
// jobs go from the arrival sampler straight into the SWF writer, so a
// million-job trace costs megabytes, not gigabytes. A multi-client
// entry's jobs survive cleaning untouched, so its bytes match the
// preloading path, and the generator's header carries the per-client
// Partition comments that make the trace self-describing.
func writeEntry(e spec.ResolvedWorkload, stream bool, out string, stdout io.Writer) error {
	var write func(io.Writer) error
	if stream || len(e.Clients) > 0 {
		src, err := newSource(e)
		if err != nil {
			return err
		}
		write = func(dst io.Writer) error { return streamTrace(src, dst) }
	} else {
		w, err := workload.Generate(e.Config)
		if err != nil {
			return err
		}
		write = func(dst io.Writer) error {
			return swf.Write(dst, &swf.Trace{
				Header: swf.Header{MaxProcs: w.MaxProcs, MaxJobs: int64(len(w.Jobs))},
				Jobs:   w.Jobs,
			})
		}
	}
	if out == "" {
		return write(stdout)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	// A failed close can lose the trace's tail, so it fails the run.
	return f.Close()
}

// headeredSource is a streaming generator that can describe itself:
// both the single-population GenSource and the multi-client MultiSource.
type headeredSource interface {
	workload.Source
	Header() swf.Header
}

// newSource builds the streaming generator for one entry.
func newSource(e spec.ResolvedWorkload) (headeredSource, error) {
	if len(e.Clients) > 0 {
		return workload.NewMultiSource(e.Config, e.Clients)
	}
	return workload.NewGenSource(e.Config)
}

// streamTrace pipes one streaming generator into dst as SWF.
func streamTrace(g headeredSource, dst io.Writer) error {
	w := swf.NewWriter(dst)
	h := g.Header()
	if err := w.WriteHeader(&h); err != nil {
		return err
	}
	for {
		j, err := g.NextJob()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := w.WriteJob(&j); err != nil {
			return err
		}
	}
	return w.Flush()
}

func generate(e spec.ResolvedWorkload) (*trace.Workload, error) {
	if len(e.Clients) > 0 {
		return workload.GenerateMulti(e.Config, e.Clients)
	}
	return workload.Generate(e.Config)
}

func printStats(stdout io.Writer, w *trace.Workload) {
	s := trace.ComputeStats(w)
	fmt.Fprintf(stdout, "workload      %s\n", s.Name)
	fmt.Fprintf(stdout, "machine       %d processors\n", s.MaxProcs)
	fmt.Fprintf(stdout, "jobs          %d\n", s.Jobs)
	fmt.Fprintf(stdout, "users         %d\n", s.Users)
	if len(w.Clients) > 0 {
		fmt.Fprintf(stdout, "clients       %d (%v)\n", len(w.Clients), w.Clients)
	}
	fmt.Fprintf(stdout, "duration      %d s (%.1f days)\n", s.DurationSec, float64(s.DurationSec)/86400)
	fmt.Fprintf(stdout, "offered load  %.2f\n", s.OfferedLoad)
	fmt.Fprintf(stdout, "mean runtime  %.0f s (median %d s)\n", s.MeanRunTime, s.MedianRunTime)
	fmt.Fprintf(stdout, "mean request  %.0f s (mean over-estimation %.1fx)\n", s.MeanRequested, s.MeanOverestim)
	fmt.Fprintf(stdout, "mean width    %.1f procs (max %d)\n", s.MeanProcsPerJob, s.MaxProcsPerJob)
}
