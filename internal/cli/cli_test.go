package cli

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestTraceConflict pins the -trace destination validation the commands
// turn into a usage error (exit 2): stdout is owned by the report, and
// the profile files cannot share the trace's path.
func TestTraceConflict(t *testing.T) {
	cases := []struct {
		name                  string
		trace, cpu, mem, want string
	}{
		{"off", "", "cpu.pprof", "mem.pprof", ""},
		{"plain file", "trace.jsonl", "", "", ""},
		{"distinct files", "trace.jsonl", "cpu.pprof", "mem.pprof", ""},
		{"dash stdout", "-", "", "", "cannot write to stdout"},
		{"dev stdout", "/dev/stdout", "", "", "cannot write to stdout"},
		{"cpu collision", "out.x", "out.x", "", "-trace and -cpuprofile both write out.x"},
		{"mem collision", "out.x", "", "out.x", "-trace and -memprofile both write out.x"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := TraceConflict(tc.trace, tc.cpu, tc.mem)
			if tc.want == "" && got != "" {
				t.Fatalf("unexpected conflict: %q", got)
			}
			if tc.want != "" && !strings.Contains(got, tc.want) {
				t.Fatalf("conflict %q does not mention %q", got, tc.want)
			}
		})
	}
}

func TestParseExit(t *testing.T) {
	if got := ParseExit(flag.ErrHelp); got != 0 {
		t.Errorf("-h exits %d, want 0", got)
	}
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	fs.SetOutput(&bytes.Buffer{})
	if got := ParseExit(fs.Parse([]string{"-nope"})); got != 2 {
		t.Errorf("unknown flag exits %d, want 2", got)
	}
}

// TestObserverOff: with every observer off the tracer is a nil
// interface (the engine's zero-cost path) and Close has nothing to do.
func TestObserverOff(t *testing.T) {
	var stderr bytes.Buffer
	o, err := Start("x", &stderr, "", "", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if o.Tracer() != nil {
		t.Fatal("tracing is off but the tracer is not nil")
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	if stderr.Len() != 0 {
		t.Errorf("unexpected notices: %q", stderr.String())
	}
}

// TestObserverFiles: both profiles and the trace land in their files,
// and the pprof endpoint starts and stops with the observer.
func TestObserverFiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem, tr := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof"), filepath.Join(dir, "trace.jsonl")
	var stderr bytes.Buffer
	o, err := Start("x", &stderr, cpu, mem, "127.0.0.1:0", tr)
	if err != nil {
		t.Fatal(err)
	}
	o.Tracer().Trace(&obs.Event{Kind: obs.KindSubmit, Job: 1})
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem, tr} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
	for _, want := range []string{"x: tracing decisions to " + tr, "x: pprof listening on http://127.0.0.1:0/debug/pprof/"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr %q does not mention %q", stderr.String(), want)
		}
	}
}

// TestObserverStartFails: a trace that cannot be opened fails Start and
// leaves no CPU profile running (a second Start may profile again).
func TestObserverStartFails(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	var stderr bytes.Buffer
	if _, err := Start("x", &stderr, cpu, "", "", filepath.Join(dir, "missing", "trace.jsonl")); err == nil {
		t.Fatal("opening a trace in a missing directory succeeded")
	}
	if _, err := Start("x", &stderr, filepath.Join(dir, "missing", "cpu.pprof"), "", "", ""); err == nil {
		t.Fatal("creating a CPU profile in a missing directory succeeded")
	}
	o, err := Start("x", &stderr, cpu, "", "", "")
	if err != nil {
		t.Fatalf("the failed Start left the CPU profile running: %v", err)
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOnlyCommandsImportCLI: no library package imports this one, so
// the handlers net/http/pprof registers never reach a binary through a
// library, the benchmark's included.
func TestOnlyCommandsImportCLI(t *testing.T) {
	err := filepath.WalkDir("..", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if bytes.Contains(src, []byte(`"repro/internal/cli"`)) {
			t.Errorf("%s imports repro/internal/cli", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
