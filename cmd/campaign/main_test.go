package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// runCampaign calls run with a background context and returns the exit
// status, stdout and stderr.
func runCampaign(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestUsageErrors pins every usage error (exit 2) but the trace
// conflicts of TestTraceConflict: each contradictory or malformed flag
// combination is rejected with a message naming it, before anything
// runs, and the -validate dry run rejects it the same way.
func TestUsageErrors(t *testing.T) {
	smoke, federated := "../../specs/ci-smoke.yaml", "../../specs/federated.yaml"
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown-flag", []string{"-flood", "everything"}, "flag provided but not defined: -flood"},
		// The sharded driver is gone; its flag must fail, not be ignored.
		{"removed-shards", []string{"-clusters", "100,100", "-stream", "-shards", "2"}, "flag provided but not defined: -shards"},
		{"negative-jobs", []string{"-jobs", "-1"}, "-jobs must be >= 0"},
		{"negative-p", []string{"-p", "-2"}, "-p must be >= 0"},
		{"negative-memlimit", []string{"-memlimit", "-1"}, "-memlimit must be >= 0"},
		{"validate-without-spec", []string{"-validate"}, "-validate requires -spec"},
		{"bad-clusters", []string{"-clusters", "100,zero"}, "bad processor count"},
		{"clusters+robustness", []string{"-clusters", "100,100", "-robustness"}, "-clusters only apply to campaign grids"},
		{"bad-routing", []string{"-clusters", "100", "-routing", "random"}, "unknown router"},
		{"routing-twice", []string{"-clusters", "100", "-routing", "spillover,spillover"}, `lists "spillover" twice`},
		{"routing-without-clusters", []string{"-routing", "spillover"}, "-routing needs clusters"},
		{"resume-without-out", []string{"-resume"}, "-resume needs a journal"},
		{"clusters+table", []string{"-clusters", "100,100", "-table", "1"}, "-table do not apply to a federated campaign"},
		{"clusters+figure", []string{"-clusters", "100,100", "-figure", "4"}, "-figure do not apply to a federated campaign"},
		{"robustness+table", []string{"-robustness", "-table", "6", "-jobs", "60"}, "-table only apply to campaign grids"},
		{"unknown-table", []string{"-jobs", "30", "-table", "9"}, "unknown -table entry 9 (have [1 6 7 8])"},
		{"unknown-figure", []string{"-jobs", "30", "-figure", "2"}, "unknown -figure entry 2 (have [3 4 5])"},
		{"robustness+spec", []string{"-spec", smoke, "-robustness"}, "-robustness conflicts with -spec"},
		{"spec-resume-without-journal", []string{"-spec", smoke, "-resume"}, "-resume needs a journal"},
		{"spec-routing-without-clusters", []string{"-spec", smoke, "-routing", "spillover"}, "-routing needs clusters"},
		{"robustness-spec+clusters", []string{"-spec", smoke, "-clusters", "100,100"}, "-clusters only apply to campaign grids"},
		{"robustness-spec+table", []string{"-spec", smoke, "-table", "6"}, "-table only apply to campaign grids"},
		{"federated-spec+table", []string{"-spec", federated, "-table", "6"}, "-table do not apply to a federated campaign"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for mode, extra := range map[string][]string{"run": nil, "validate": {"-validate"}} {
				t.Run(mode, func(t *testing.T) {
					code, stdout, stderr := runCampaign(t, append(tc.args, extra...)...)
					if code != 2 {
						t.Fatalf("exit %d, want 2 (stderr: %s)", code, stderr)
					}
					if !strings.Contains(stderr, tc.want) {
						t.Errorf("stderr %q does not mention %q", stderr, tc.want)
					}
					if stdout != "" {
						t.Errorf("a usage error printed to stdout: %q", stdout)
					}
				})
			}
		})
	}
}

// TestTraceConflict pins how the -trace destination meets the report
// and the profile flags: stdout and a profile's file are usage errors
// (exit 2); a separate file passes (the -validate dry run then exits 0
// without creating any of them).
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
			code, _, stderr := runCampaign(t, "-spec", "../../specs/ci-smoke.yaml", "-validate",
				"-trace", tc.trace, "-cpuprofile", tc.cpu, "-memprofile", tc.mem)
			if tc.want == "" {
				if code != 0 {
					t.Fatalf("exit %d, want 0 (stderr: %s)", code, stderr)
				}
				return
			}
			if code != 2 || !strings.Contains(stderr, tc.want) {
				t.Fatalf("exit %d, want 2 with %q (stderr: %s)", code, tc.want, stderr)
			}
		})
	}
}

// TestHelp: -h prints the usage and exits 0, as the flag package's
// exit-on-error mode always did.
func TestHelp(t *testing.T) {
	code, _, stderr := runCampaign(t, "-h")
	if code != 0 || !strings.Contains(stderr, "-robustness") {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
}

// TestRuntimeErrors: failures past the flag surface exit 1.
func TestRuntimeErrors(t *testing.T) {
	dir := t.TempDir()
	for name, args := range map[string][]string{
		"missing-spec":     {"-spec", filepath.Join(dir, "none.yaml")},
		"unwritable-out":   {"-jobs", "20", "-table", "1", "-out", filepath.Join(dir, "missing", "j.jsonl")},
		"unwritable-trace": {"-jobs", "20", "-table", "1", "-trace", filepath.Join(dir, "missing", "t.jsonl")},
	} {
		if code, _, stderr := runCampaign(t, args...); code != 1 {
			t.Errorf("%s: exit %d, want 1 (stderr: %s)", name, code, stderr)
		}
	}
}

// TestRunGrids runs one tiny grid of each kind end to end.
func TestRunGrids(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want []string
	}{
		{"campaign", []string{"-jobs", "40", "-p", "2", "-perf"},
			[]string{"Table 1:", "Table 6:", "Table 7:", "Average AVEbsld reduction of the C-V triple", "Table 8:", "Figure 3", "Figure 4", "Figure 5"}},
		{"robustness", []string{"-jobs", "40", "-p", "2", "-robustness", "-stream", "-perf"},
			[]string{"Robustness: AVEbsld per heuristic triple x disruption intensity", "KTH-SP2:", "Metacentrum:"}},
		{"federated", []string{"-jobs", "40", "-p", "2", "-clusters", "100,64x1.5", "-routing", "least-loaded,spillover", "-perf"},
			[]string{"least-loaded", "spillover"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runCampaign(t, tc.args...)
			if code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, stderr)
			}
			for _, want := range tc.want {
				if !strings.Contains(stdout, want) {
					t.Errorf("stdout missing %q:\n%s", want, stdout)
				}
			}
			if !strings.Contains(stderr, "Performance counters") {
				t.Errorf("-perf printed no counters:\n%s", stderr)
			}
		})
	}
}

// TestSelection: -table and -figure select what renders, and a table
// that needs no grid runs none.
func TestSelection(t *testing.T) {
	code, stdout, stderr := runCampaign(t, "-jobs", "40", "-table", "8")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.HasPrefix(stdout, "Table 8:") || strings.Contains(stdout, "Table 1:") {
		t.Errorf("-table 8 rendered the wrong report:\n%s", stdout)
	}
	if strings.Contains(stderr, "running") {
		t.Errorf("-table 8 ran the grid:\n%s", stderr)
	}

	// A zero selects nothing: the spec's tables and figures all print.
	for _, flag := range []string{"-table", "-figure"} {
		code, stdout, stderr := runCampaign(t, "-spec", "../../specs/paper.yaml", flag, "0", "-jobs", "40")
		if code != 0 {
			t.Fatalf("%s 0: exit %d, stderr: %s", flag, code, stderr)
		}
		for _, title := range []string{"Table 1:", "Table 6:", "Table 7:", "Table 8:", "Figure 3:", "Figure 4:", "Figure 5:"} {
			if !strings.Contains(stdout, title) {
				t.Errorf("%s 0 dropped the spec's %q:\n%s", flag, title, stdout)
			}
		}
	}
}

// TestValidateSpecs: every checked-in spec passes the -validate dry run.
func TestValidateSpecs(t *testing.T) {
	paths, err := filepath.Glob("../../specs/*.yaml")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no specs found: %v", err)
	}
	for _, p := range paths {
		t.Run(filepath.Base(p), func(t *testing.T) {
			code, stdout, stderr := runCampaign(t, "-spec", p, "-validate")
			if code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, stderr)
			}
			if !strings.HasPrefix(stdout, "spec "+p+": OK\n") || !strings.Contains(stdout, "  grid ") {
				t.Errorf("unexpected shape:\n%s", stdout)
			}
		})
	}
}

// TestInterruptedRunResumes: a canceled grid exits 1 and points at
// -resume; the resumed run's report equals an uninterrupted run's.
func TestInterruptedRunResumes(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "grid.jsonl")
	args := []string{"-jobs", "30", "-p", "1", "-table", "6"}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stdout, stderr bytes.Buffer
	if code := run(ctx, append(args, "-out", journal), &stdout, &stderr); code != 1 {
		t.Fatalf("canceled run exit %d, want 1 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "interrupted after") || !strings.Contains(stderr.String(), "rerun with -resume") {
		t.Errorf("stderr does not explain the interruption:\n%s", stderr.String())
	}

	code, resumed, errOut := runCampaign(t, append(args, "-out", journal, "-resume")...)
	if code != 0 {
		t.Fatalf("resumed run exit %d, stderr: %s", code, errOut)
	}
	code, fresh, errOut := runCampaign(t, args...)
	if code != 0 {
		t.Fatalf("uninterrupted run exit %d, stderr: %s", code, errOut)
	}
	if resumed != fresh {
		t.Fatalf("resumed report differs from an uninterrupted run:\n%s\nvs\n%s", resumed, fresh)
	}
}

// TestSpecJournalResume: a spec run resumed from its complete journal
// loads every cell, appends nothing and prints the same report.
func TestSpecJournalResume(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "smoke.jsonl")
	args := []string{"-spec", "../../specs/ci-smoke.yaml", "-out", journal}
	code, fresh, stderr := runCampaign(t, args...)
	if code != 0 {
		t.Fatalf("fresh run exit %d, stderr: %s", code, stderr)
	}
	before, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	code, resumed, stderr := runCampaign(t, append(args, "-resume")...)
	if code != 0 {
		t.Fatalf("resumed run exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "12 journaled cells loaded") {
		t.Errorf("resume did not load the journal:\n%s", stderr)
	}
	after, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Errorf("resuming a complete journal appended %d bytes", len(after)-len(before))
	}
	if resumed != fresh {
		t.Fatalf("resumed report differs:\n%s\nvs\n%s", resumed, fresh)
	}
}

// TestTracedRun: tracing and profiling never perturb the report, and
// every trace line passes the schema validator.
func TestTracedRun(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.jsonl")
	args := []string{"-jobs", "30", "-p", "2", "-table", "1"}
	code, bare, stderr := runCampaign(t, args...)
	if code != 0 {
		t.Fatalf("bare run exit %d, stderr: %s", code, stderr)
	}
	code, traced, stderr := runCampaign(t, append(args, "-trace", trace,
		"-cpuprofile", filepath.Join(dir, "cpu.pprof"), "-memprofile", filepath.Join(dir, "mem.pprof"))...)
	if code != 0 {
		t.Fatalf("traced run exit %d, stderr: %s", code, stderr)
	}
	if traced != bare {
		t.Fatalf("tracing perturbed the report:\n%s\nvs\n%s", traced, bare)
	}
	lines := 0
	if err := obs.ReadFile(trace, func(_ int, ev obs.Event) error {
		lines++
		return obs.ValidateEvent(&ev)
	}); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("empty trace")
	}
}
