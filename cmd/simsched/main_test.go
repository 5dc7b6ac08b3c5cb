package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/swf"
	"repro/internal/workload"
)

// TestUsageErrors pins the flag-combination validation: every
// contradictory combination exits 2 with a message naming the conflict,
// instead of silently ignoring one of the flags.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"stream+disrupt", []string{"-stream", "-disrupt", "light"}, "drop -disrupt"},
		{"stream+replay", []string{"-stream", "-status", "replay", "-swf", "x.swf"}, "cannot replay"},
		{"triple+policy", []string{"-triple", "easy", "-policy", "fcfs"}, "drop -policy"},
		{"triple+predictor", []string{"-triple", "easy", "-predictor", "ave2"}, "drop -predictor"},
		{"triple+corrector", []string{"-triple", "easy", "-corrector", "doubling"}, "drop -corrector"},
		{"triple+loss", []string{"-triple", "easy", "-loss", "over=sq,under=lin,w=const"}, "drop -loss"},
		{"maxprocs-without-swf", []string{"-maxprocs", "64"}, "needs -swf"},
		{"status-without-swf", []string{"-status", "skip"}, "needs -swf"},
		{"preset+swf", []string{"-swf", "x.swf", "-preset", "Curie"}, "conflicts with -swf"},
		{"jobs+swf", []string{"-swf", "x.swf", "-jobs", "100"}, "conflicts with -swf"},
		{"disrupt-seed-without-disrupt", []string{"-disrupt-seed", "7"}, "needs -disrupt"},
		{"routing-without-clusters", []string{"-routing", "spillover"}, "needs -clusters"},
		{"bad-clusters", []string{"-clusters", "100,zero"}, "bad processor count"},
		{"bad-routing", []string{"-clusters", "100", "-routing", "random"}, "unknown router"},
		{"trace-to-stdout", []string{"-trace", "-"}, "cannot write to stdout"},
		{"trace-to-dev-stdout", []string{"-trace", "/dev/stdout"}, "cannot write to stdout"},
		{"trace-cpuprofile-collision", []string{"-trace", "out.x", "-cpuprofile", "out.x"}, "-trace and -cpuprofile both write out.x"},
		{"trace-memprofile-collision", []string{"-trace", "out.x", "-memprofile", "out.x"}, "-trace and -memprofile both write out.x"},
		{"unknown-flag", []string{"-flood", "everything"}, ""},
		{"unknown-triple", []string{"-triple", "eazy"}, `unknown triple "eazy"`},
		// The sharded driver is gone; its flag must fail, not be ignored.
		{"removed-shards", []string{"-clusters", "100,100", "-stream", "-shards", "2"}, "flag provided but not defined: -shards"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2 (stderr: %s)", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), tc.want)
			}
		})
	}
}

// TestRunSingle is the classic path end to end at a tiny scale.
func TestRunSingle(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-jobs", "150", "-triple", "easy++"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	for _, want := range []string{"KTH-SP2", "AVEbsld", "utilization"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("output missing %q:\n%s", want, stdout.String())
		}
	}
}

// TestRunFederated: the federated preloading path prints the routing
// policy and one line per cluster.
func TestRunFederated(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-jobs", "150", "-triple", "easy++",
		"-clusters", "100,slow=64x0.5", "-routing", "least-loaded"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"routing       least-loaded", "over 2 clusters", "cluster c0", "cluster slow"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRunFederatedDisrupted: -disrupt on a federated run generates
// per-cluster scripts (the scenario line reports merged counts).
func TestRunFederatedDisrupted(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-jobs", "150", "-triple", "easy",
		"-clusters", "100,100", "-disrupt", "light", "-disrupt-seed", "9"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "scenario      light+keep/federated") {
		t.Errorf("scenario line missing:\n%s", stdout.String())
	}
}

// TestRunTraced pins the -trace flag end to end: the traced run's
// stdout is byte-identical to the untraced run's, and every line of the
// trace file passes the schema validator.
func TestRunTraced(t *testing.T) {
	args := []string{"-jobs", "150", "-triple", "easy++"}
	var bare, bareErr bytes.Buffer
	if code := run(args, &bare, &bareErr); code != 0 {
		t.Fatalf("untraced exit %d, stderr: %s", code, bareErr.String())
	}

	path := filepath.Join(t.TempDir(), "trace.jsonl")
	var traced, tracedErr bytes.Buffer
	if code := run(append(args, "-trace", path), &traced, &tracedErr); code != 0 {
		t.Fatalf("traced exit %d, stderr: %s", code, tracedErr.String())
	}
	if bare.String() != traced.String() {
		t.Fatalf("tracing perturbed the run:\n%s\nvs\n%s", bare.String(), traced.String())
	}

	lines, picks := 0, 0
	err := obs.ReadFile(path, func(line int, ev obs.Event) error {
		lines++
		if err := obs.ValidateEvent(&ev); err != nil {
			return err
		}
		if ev.Kind == obs.KindPick {
			picks++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if lines == 0 || picks == 0 {
		t.Fatalf("trace too thin: %d lines, %d picks", lines, picks)
	}
}

// TestRunProfiles pins -cpuprofile/-memprofile: both files exist and
// are non-empty after the run.
func TestRunProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-jobs", "150", "-triple", "easy",
		"-cpuprofile", cpu, "-memprofile", mem}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Fatalf("%s is empty", p)
		}
	}
}

// TestRunFederatedStreaming: the bounded-memory federated path.
func TestRunFederatedStreaming(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-jobs", "150", "-triple", "easy++",
		"-clusters", "100,64", "-stream"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"streamed", "routing       round-robin", "cluster c1"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRunTriples: every spelling of the shared triple vocabulary runs,
// and the per-axis flags assemble the triple they name; an unknown axis
// value is a runtime failure.
func TestRunTriples(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-triple", "conservative"}, "Conservative/RequestedTime/RequestedTime"},
		{[]string{"-triple", "paper-best"}, "EASY-SJBF/ML[over=sq,under=lin,w=largearea]/Incremental"},
		{[]string{"-triple", "clairvoyant-easy"}, "EASY/Clairvoyant/RequestedTime"},
		{[]string{"-triple", "clairvoyant-sjbf"}, "EASY-SJBF/Clairvoyant/RequestedTime"},
		{[]string{"-policy", "conservative", "-predictor", "ave2", "-corrector", "doubling"}, "Conservative/AVE2/RecursiveDoubling"},
		{[]string{"-policy", "fcfs", "-predictor", "ml"}, "FCFS/ML[over=sq,under=lin,w=largearea]/Incremental"},
		{[]string{"-policy", "easy", "-predictor", "requested", "-corrector", "requested"}, "EASY/RequestedTime/RequestedTime"},
		{[]string{"-predictor", "clairvoyant", "-corrector", "incremental"}, "EASY-SJBF/Clairvoyant/Incremental"},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(append([]string{"-jobs", "100"}, tc.args...), &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d, stderr: %s", tc.args, code, stderr.String())
		}
		if !strings.Contains(stdout.String(), "triple        "+tc.want+"\n") {
			t.Errorf("%v: triple line missing %q:\n%s", tc.args, tc.want, stdout.String())
		}
	}
	for _, args := range [][]string{{"-policy", "bogus"}, {"-predictor", "psychic"}, {"-corrector", "wishful"}, {"-loss", "none"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 1 {
			t.Errorf("%v: exit %d, want 1 (stderr: %s)", args, code, stderr.String())
		}
	}
}

// openFiles counts the process's open file descriptors, or returns -1
// where /proc/self/fd is unavailable.
func openFiles() int {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(fds)
}

// TestRunSWF: an SWF file replays preloaded and streamed to the same
// metrics, and the run closes the file when it ends.
func TestRunSWF(t *testing.T) {
	cfg, err := workload.Scaled("KTH-SP2", 200)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "smoke.swf")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := swf.Write(f, &swf.Trace{Header: swf.Header{MaxProcs: w.MaxProcs, MaxJobs: int64(len(w.Jobs))}, Jobs: w.Jobs}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// The lines both paths print in the same format.
	shared := func(out string) []string {
		var keep []string
		for _, line := range strings.Split(out, "\n") {
			for _, p := range []string{"triple ", "AVEbsld ", "max bsld ", "utilization ", "corrections ", "prediction MAE "} {
				if strings.HasPrefix(line, p) {
					keep = append(keep, line)
				}
			}
		}
		return keep
	}
	var outs [2][]string
	for i, args := range [][]string{
		{"-swf", path, "-triple", "easy++"},
		{"-swf", path, "-stream", "-triple", "easy++"},
	} {
		before := openFiles()
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d, stderr: %s", args, code, stderr.String())
		}
		if after := openFiles(); after != before {
			t.Errorf("%v: %d open files before the run, %d after", args, before, after)
		}
		outs[i] = shared(stdout.String())
	}
	if len(outs[0]) != 6 || strings.Join(outs[0], "\n") != strings.Join(outs[1], "\n") {
		t.Fatalf("preloaded and streamed replays differ:\n%s\nvs\n%s", strings.Join(outs[0], "\n"), strings.Join(outs[1], "\n"))
	}
}
