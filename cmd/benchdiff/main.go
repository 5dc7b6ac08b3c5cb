// Command benchdiff is the CI perf-regression gate: it parses `go test
// -bench` output, compares ns/op and allocs/op against a checked-in
// JSON baseline, and exits non-zero when any benchmark slowed down (or
// allocates more) beyond the threshold. With -update it instead merges
// the measured numbers into the baseline — the escape hatch for when a
// legitimate speedup (or an intentional trade-off) moves the floor.
// Entries the run did not measure are kept, so a partial run cannot drop
// gated benchmarks; deleting an entry is a hand edit.
//
// Usage:
//
//	go test -run '^$' -bench 'BenchmarkSchedPick|BenchmarkSchedSim|BenchmarkScheddIntake' -benchmem . | \
//	    go run ./cmd/benchdiff -baseline BENCH_baseline.json -
//
//	go run ./cmd/benchdiff -baseline BENCH_baseline.json -update bench.out
//
// Benchmark names are normalized by stripping the trailing -GOMAXPROCS
// suffix so baselines transfer across machines with different core
// counts; duplicate measurements of one benchmark (e.g. -count 3) are
// collapsed to their minimum, the standard noise filter. ns/op
// regressions are judged against -threshold (percent), but only when
// the benchmark is slower than -min-ns on at least one side: for
// nanosecond-scale cache-hit paths, a 25% window is below cross-machine
// clock variance, so they are reported informationally and gated on
// allocs/op alone (where zero really is zero on every machine).
// allocs/op is held to the same threshold, except a zero-alloc
// baseline is a hard guarantee: any allocation at all fails the gate.
//
// -update stamps every entry it measures with the machine that measured
// it: the bench output's cpu: line, the GOMAXPROCS suffix, and the Go
// version benchdiff was built with (the toolchain of the `go test` run
// when both go through one `go` command, as above). The report prints
// the stamps beside every failing entry, so a slowdown measured on
// another host reads as such. Entries from before stamping load with
// none.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cli"
)

// Measurement is one benchmark's tracked quantities.
type Measurement struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// HasAllocs records whether the run reported allocs/op at all
	// (requires -benchmem); it keeps a baseline made with -benchmem
	// from failing against output made without it in a confusing way.
	HasAllocs bool `json:"has_allocs"`
	// Machine is the host that measured the entry; zero for entries
	// recorded before -update stamped them.
	Machine machine `json:"machine,omitzero"`
}

// machine identifies the host and toolchain behind a measurement.
type machine struct {
	CPU        string `json:"cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func (m machine) String() string {
	if m == (machine{}) {
		return "an unrecorded machine"
	}
	return fmt.Sprintf("%s, GOMAXPROCS=%d, %s", m.CPU, m.GOMAXPROCS, m.Go)
}

// gatedPattern is the -bench pattern CI runs for the perf gate; the note
// -update writes quotes it.
const gatedPattern = "BenchmarkSchedPick|BenchmarkSchedSim|BenchmarkScheddIntake"

// baselineNote is the note -update writes into the baseline.
const baselineNote = "Performance baseline for the CI perf gate (cmd/benchdiff). " +
	"Regenerate after an intentional performance change with: " +
	"go test -run '^$' -bench '" + gatedPattern + "' -benchmem . " +
	"| go run ./cmd/benchdiff -baseline BENCH_baseline.json -update -"

// Baseline is the checked-in BENCH_baseline.json schema.
type Baseline struct {
	// Note documents how to regenerate the file.
	Note       string                 `json:"note"`
	Benchmarks map[string]Measurement `json:"benchmarks"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point. Exit status 2 is a usage error, 1 a
// failed gate or a runtime failure.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baselinePath := fs.String("baseline", "BENCH_baseline.json", "baseline JSON to compare against (or write with -update)")
	threshold := fs.Float64("threshold", 25, "maximum allowed slowdown in percent")
	minNs := fs.Float64("min-ns", 1000, "ns/op noise floor: benchmarks under this on both sides are gated on allocs/op only")
	update := fs.Bool("update", false, "merge the measured numbers into the baseline instead of comparing")
	if err := fs.Parse(args); err != nil {
		return cli.ParseExit(err)
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: benchdiff [-baseline file] [-threshold pct] [-update] bench-output-file (- for stdin)")
		return 2
	}
	if *threshold <= 0 {
		fmt.Fprintf(stderr, "benchdiff: -threshold must be > 0, got %v\n", *threshold)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 1
	}

	in := io.Reader(os.Stdin)
	if name := fs.Arg(0); name != "-" {
		f, err := os.Open(name)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		in = f
	}
	current, err := parseBench(in)
	if err != nil {
		return fail(err)
	}
	if len(current) == 0 {
		return fail(fmt.Errorf("no benchmark result lines found in input"))
	}

	if *update {
		total, err := updateBaseline(*baselinePath, current)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "benchdiff: wrote %d measured of %d benchmarks to %s\n", len(current), total, *baselinePath)
		return 0
	}

	base, err := readBaseline(*baselinePath)
	if err != nil {
		return fail(err)
	}

	report, failures := diff(base.Benchmarks, current, *threshold, *minNs)
	fmt.Fprint(stdout, report)
	if failures > 0 {
		fmt.Fprintf(stdout, "\nbenchdiff: FAIL — %d regression(s) beyond %.0f%% (regenerate %s with -update only if the change is intentional)\n",
			failures, *threshold, *baselinePath)
		return 1
	}
	fmt.Fprintf(stdout, "\nbenchdiff: ok — %d benchmarks within %.0f%% of baseline\n", len(base.Benchmarks), *threshold)
	return 0
}

// benchLine matches a standard testing.B result line: name, iteration
// count, then value/unit pairs.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+(.+)$`)

// gomaxprocsSuffix is the trailing -N testing appends to benchmark names
// when GOMAXPROCS is not 1.
var gomaxprocsSuffix = regexp.MustCompile(`-(\d+)$`)

// parseBench extracts ns/op and allocs/op per normalized benchmark name,
// collapsing repeated measurements (-count > 1) to their minimum, and
// stamps each with the machine that measured it.
func parseBench(r io.Reader) (map[string]Measurement, error) {
	out := map[string]Measurement{}
	cpu := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if v, ok := strings.CutPrefix(line, "cpu:"); ok {
			cpu = strings.TrimSpace(v)
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name, procs := m[1], 1
		if sfx := gomaxprocsSuffix.FindStringSubmatch(name); sfx != nil {
			name = strings.TrimSuffix(name, sfx[0])
			procs, _ = strconv.Atoi(sfx[1])
		}
		fields := strings.Fields(m[2])
		meas := Measurement{Machine: machine{CPU: cpu, GOMAXPROCS: procs, Go: runtime.Version()}}
		seenNs := false
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchmark %s: bad value %q", name, fields[i])
			}
			switch fields[i+1] {
			case "ns/op":
				meas.NsPerOp = v
				seenNs = true
			case "allocs/op":
				meas.AllocsPerOp = v
				meas.HasAllocs = true
			}
		}
		if !seenNs {
			continue // custom-metric-only line
		}
		if prev, ok := out[name]; ok {
			// Minimum across repeats: the least-noisy estimate.
			if prev.NsPerOp < meas.NsPerOp {
				meas.NsPerOp = prev.NsPerOp
			}
			if prev.HasAllocs && (!meas.HasAllocs || prev.AllocsPerOp < meas.AllocsPerOp) {
				meas.AllocsPerOp = prev.AllocsPerOp
				meas.HasAllocs = true
			}
		}
		out[name] = meas
	}
	return out, sc.Err()
}

// diff renders the comparison table and counts gate failures. Every
// baseline benchmark must be present in the current run — losing
// coverage silently would defeat the gate; benchmarks absent from the
// baseline are reported but do not fail (they will be picked up on the
// next -update).
func diff(base, current map[string]Measurement, thresholdPct, minNs float64) (string, int) {
	var b strings.Builder
	failures := 0
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want := base[name]
		got, ok := current[name]
		if !ok {
			fmt.Fprintf(&b, "MISSING  %-58s baseline %.1f ns/op, not measured\n", name, want.NsPerOp)
			fmt.Fprintf(&b, "         baseline measured on %s\n", want.Machine)
			failures++
			continue
		}
		before := failures
		status := "ok     "
		pct := 100 * (got.NsPerOp - want.NsPerOp) / want.NsPerOp
		switch {
		case want.NsPerOp < minNs && got.NsPerOp < minNs:
			// Below the noise floor on both sides: ns/op is
			// informational; the allocs gate below still applies.
			status = "fast   "
		case pct > thresholdPct:
			status = "SLOWER "
			failures++
		}
		fmt.Fprintf(&b, "%s  %-58s %12.1f -> %12.1f ns/op (%+6.1f%%)", status, name, want.NsPerOp, got.NsPerOp, pct)
		if want.HasAllocs && got.HasAllocs {
			switch {
			case want.AllocsPerOp == 0 && got.AllocsPerOp > 0:
				// A zero-alloc baseline is a guarantee, not a measurement.
				fmt.Fprintf(&b, "  ALLOCS 0 -> %.0f allocs/op", got.AllocsPerOp)
				failures++
			case want.AllocsPerOp > 0 && 100*(got.AllocsPerOp-want.AllocsPerOp)/want.AllocsPerOp > thresholdPct:
				fmt.Fprintf(&b, "  ALLOCS %.0f -> %.0f allocs/op", want.AllocsPerOp, got.AllocsPerOp)
				failures++
			default:
				fmt.Fprintf(&b, "  allocs %.0f -> %.0f", want.AllocsPerOp, got.AllocsPerOp)
			}
		}
		fmt.Fprintln(&b)
		if failures > before {
			fmt.Fprintf(&b, "         baseline measured on %s; this run on %s\n", want.Machine, got.Machine)
		}
	}
	var extra []string
	for name := range current {
		if _, ok := base[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(&b, "new      %-58s %12.1f ns/op (not in baseline)\n", name, current[name].NsPerOp)
	}
	return b.String(), failures
}

func readBaseline(path string) (Baseline, error) {
	var base Baseline
	data, err := os.ReadFile(path)
	if err != nil {
		return base, err
	}
	if err := json.Unmarshal(data, &base); err != nil {
		return base, fmt.Errorf("parse %s: %w", path, err)
	}
	return base, nil
}

// updateBaseline merges the measured entries into the baseline at path
// (created if absent), keeps the entries the run did not measure, and
// returns how many entries the file now holds.
func updateBaseline(path string, measured map[string]Measurement) (int, error) {
	base, err := readBaseline(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return 0, err
	}
	if base.Benchmarks == nil {
		base.Benchmarks = map[string]Measurement{}
	}
	maps.Copy(base.Benchmarks, measured)
	base.Note = baselineNote
	data, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		return 0, err
	}
	return len(base.Benchmarks), os.WriteFile(path, append(data, '\n'), 0o644)
}
