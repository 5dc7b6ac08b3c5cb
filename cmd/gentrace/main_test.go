package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/swf"
)

// parseJobs parses an SWF trace and returns its job count.
func parseJobs(t *testing.T, data []byte) int {
	t.Helper()
	tr, err := swf.Parse(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return len(tr.Jobs)
}

// TestWritesParseBack: the preloaded trace on stdout and the streamed
// trace in a file both parse back with every generated job.
func TestWritesParseBack(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-preset", "KTH-SP2", "-jobs", "200"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if n := parseJobs(t, stdout.Bytes()); n != 200 {
		t.Errorf("stdout trace has %d jobs, want 200", n)
	}

	path := filepath.Join(t.TempDir(), "kth.swf")
	stdout.Reset()
	if code := run([]string{"-preset", "KTH-SP2", "-jobs", "200", "-stream", "-o", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("-o still wrote %d bytes to stdout", stdout.Len())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := parseJobs(t, data); n != 200 {
		t.Errorf("streamed trace has %d jobs, want 200", n)
	}
}

// TestSpecWritesOneFilePerWorkload: -spec with -o DIR writes one trace
// per workload entry, preloaded or streamed.
func TestSpecWritesOneFilePerWorkload(t *testing.T) {
	for _, mode := range [][]string{nil, {"-stream"}} {
		dir := t.TempDir()
		var stdout, stderr bytes.Buffer
		args := append([]string{"-spec", "../../specs/ci-smoke.yaml", "-o", dir}, mode...)
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d, stderr: %s", mode, code, stderr.String())
		}
		for _, name := range []string{"KTH-SP2.swf", "micro.swf"} {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if n := parseJobs(t, data); n != 150 {
				t.Errorf("%v: %s has %d jobs, want 150", mode, name, n)
			}
		}
	}
}

func TestStats(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-preset", "Curie", "-jobs", "300", "-stats"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	for _, want := range []string{"workload      Curie", "jobs          300", "offered load"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stats missing %q:\n%s", want, stdout.String())
		}
	}
}

// TestUsageErrors: contradictory flags exit 2 with a message naming
// the conflict.
func TestUsageErrors(t *testing.T) {
	smoke := "../../specs/ci-smoke.yaml"
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"stream+stats", []string{"-stream", "-stats"}, "drop -stats"},
		{"negative-jobs", []string{"-jobs", "-5"}, "-jobs must be >= 0"},
		{"preset+spec", []string{"-spec", smoke, "-preset", "Curie"}, "-preset conflicts with -spec"},
		{"spec-without-o", []string{"-spec", smoke}, "pass -o DIR"},
		{"spec-stream-without-o", []string{"-spec", smoke, "-stream"}, "pass -o DIR"},
		{"unknown-flag", []string{"-flood"}, "flag provided but not defined"},
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

// TestWriteFailures: a trace that cannot be written fully exits 1.
func TestWriteFailures(t *testing.T) {
	dir := t.TempDir()
	cases := [][]string{
		{"-preset", "KTH-SP2", "-jobs", "200", "-o", filepath.Join(dir, "missing", "t.swf")},
		{"-preset", "Unknown"},
		{"-spec", filepath.Join(dir, "none.yaml")},
	}
	if _, err := os.Stat("/dev/full"); err == nil {
		cases = append(cases,
			[]string{"-preset", "KTH-SP2", "-jobs", "200", "-o", "/dev/full"},
			[]string{"-preset", "KTH-SP2", "-jobs", "200", "-stream", "-o", "/dev/full"})
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 1 {
			t.Errorf("%v: exit %d, want 1 (stderr: %s)", args, code, stderr.String())
		}
	}
}
