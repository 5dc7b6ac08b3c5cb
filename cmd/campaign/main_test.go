package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestTraceConflict pins the -trace destination validation main feeds
// to usageError (exit 2): stdout is owned by the tables, and the
// profile files cannot share the trace's path. The check lives in a
// plain function because usageError os.Exits.
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
			got := traceConflict(tc.trace, tc.cpu, tc.mem)
			if tc.want == "" && got != "" {
				t.Fatalf("unexpected conflict: %q", got)
			}
			if tc.want != "" && !strings.Contains(got, tc.want) {
				t.Fatalf("conflict %q does not mention %q", got, tc.want)
			}
		})
	}
}

// TestRemovedShardsFlag: the sharded driver is gone, and so is its
// -shards flag; passing it must exit 2 through flag.Parse instead of
// being ignored. main os.Exits, so the test re-runs its own binary with
// the flag.
func TestRemovedShardsFlag(t *testing.T) {
	if os.Getenv("CAMPAIGN_TEST_MAIN") == "1" {
		os.Args = []string{"campaign", "-clusters", "100,100", "-stream", "-shards", "2"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestRemovedShardsFlag$")
	cmd.Env = append(os.Environ(), "CAMPAIGN_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("campaign -shards 2: %v, want exit 2 (output: %s)", err, out)
	}
	if !strings.Contains(string(out), "flag provided but not defined: -shards") {
		t.Fatalf("output does not name the removed flag:\n%s", out)
	}
}
