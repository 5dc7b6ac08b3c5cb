package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: repro
cpu: some cpu
BenchmarkSchedPickEASYSJBF/incremental-8         	35819911	        33.3 ns/op	         0 B/op	       0 allocs/op
BenchmarkSchedPickEASYSJBF/incremental-8         	35819911	        31.1 ns/op	         0 B/op	       0 allocs/op
BenchmarkSchedPickEASYSJBF/reference-8           	    1042	   1148276 ns/op	  163840 B/op	      21 allocs/op
BenchmarkSchedSimEndToEnd/easy-sjbf-incremental-8	      10	 101000000 ns/op	 5000000 B/op	   60000 allocs/op
BenchmarkTable1_KTHSP2-8	       1	1200000000 ns/op	        21.95 EASY-AVEbsld	        13.20 Clairvoyant-AVEbsld
PASS
ok  	repro	12.3s
`

func parsed(t *testing.T) map[string]Measurement {
	t.Helper()
	m, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestParseBench(t *testing.T) {
	m := parsed(t)
	inc, ok := m["BenchmarkSchedPickEASYSJBF/incremental"]
	if !ok {
		t.Fatalf("GOMAXPROCS suffix not stripped: keys %v", m)
	}
	if inc.NsPerOp != 31.1 {
		t.Errorf("repeats not collapsed to min: ns/op = %v", inc.NsPerOp)
	}
	if !inc.HasAllocs || inc.AllocsPerOp != 0 {
		t.Errorf("allocs/op misparsed: %+v", inc)
	}
	if ref := m["BenchmarkSchedPickEASYSJBF/reference"]; ref.AllocsPerOp != 21 {
		t.Errorf("reference allocs = %v, want 21", ref.AllocsPerOp)
	}
	// The Table1 line carries custom metrics; its ns/op must still parse.
	if tb := m["BenchmarkTable1_KTHSP2"]; tb.NsPerOp != 1.2e9 || tb.HasAllocs {
		t.Errorf("custom-metric line misparsed: %+v", tb)
	}
}

func TestParseBenchStampsMachine(t *testing.T) {
	m, err := parseBench(strings.NewReader(sampleBench + `cpu: other cpu
BenchmarkSchedSimStream/easy-sjbf	      10	   5000000 ns/op	 5000 B/op	     131 allocs/op
`))
	if err != nil {
		t.Fatal(err)
	}
	want := machine{CPU: "some cpu", GOMAXPROCS: 8, Go: runtime.Version()}
	if got := m["BenchmarkSchedPickEASYSJBF/incremental"].Machine; got != want {
		t.Errorf("stamp %+v, want %+v", got, want)
	}
	// No suffix means GOMAXPROCS=1; a later cpu: line applies from there on.
	want = machine{CPU: "other cpu", GOMAXPROCS: 1, Go: runtime.Version()}
	if got := m["BenchmarkSchedSimStream/easy-sjbf"].Machine; got != want {
		t.Errorf("unsuffixed stamp %+v, want %+v", got, want)
	}
}

func TestDiffPasses(t *testing.T) {
	m := parsed(t)
	out, failures := diff(m, m, 25, 1000)
	if failures != 0 {
		t.Fatalf("self-diff failed:\n%s", out)
	}
}

func TestDiffCatchesSlowdown(t *testing.T) {
	base := parsed(t)
	cur := parsed(t)
	slow := cur["BenchmarkSchedPickEASYSJBF/reference"]
	slow.NsPerOp *= 2 // the deliberate 2x slowdown the gate must catch
	cur["BenchmarkSchedPickEASYSJBF/reference"] = slow
	out, failures := diff(base, cur, 25, 1000)
	if failures != 1 || !strings.Contains(out, "SLOWER") {
		t.Fatalf("2x slowdown not caught (%d failures):\n%s", failures, out)
	}
	// 25% exactly is within threshold; 26% is not.
	cur = parsed(t)
	edge := cur["BenchmarkSchedPickEASYSJBF/reference"]
	edge.NsPerOp = base["BenchmarkSchedPickEASYSJBF/reference"].NsPerOp * 1.24
	cur["BenchmarkSchedPickEASYSJBF/reference"] = edge
	if _, failures := diff(base, cur, 25, 1000); failures != 0 {
		t.Error("24% slowdown failed a 25% threshold")
	}
}

func TestDiffNoiseFloorSkipsNsGateOnly(t *testing.T) {
	base := parsed(t)
	cur := parsed(t)
	// A nanosecond-scale benchmark doubling is clock noise across
	// machines: no ns/op failure while it stays under the floor...
	inc := cur["BenchmarkSchedPickEASYSJBF/incremental"]
	inc.NsPerOp *= 2
	cur["BenchmarkSchedPickEASYSJBF/incremental"] = inc
	if out, failures := diff(base, cur, 25, 1000); failures != 0 {
		t.Fatalf("sub-floor ns/op change failed the gate:\n%s", out)
	}
	// ...but crossing the floor is a real slowdown again.
	inc.NsPerOp = 2000
	cur["BenchmarkSchedPickEASYSJBF/incremental"] = inc
	if out, failures := diff(base, cur, 25, 1000); failures != 1 || !strings.Contains(out, "SLOWER") {
		t.Fatalf("above-floor slowdown not caught (%d failures):\n%s", failures, out)
	}
}

// TestDiffPrintsStampsOfFailingEntries: a failing entry is reported
// with the machines on both sides, a passing one without.
func TestDiffPrintsStampsOfFailingEntries(t *testing.T) {
	base := parsed(t)
	ref := base["BenchmarkSchedPickEASYSJBF/reference"]
	ref.Machine = machine{CPU: "baseline cpu", GOMAXPROCS: 2, Go: "go1.0"}
	base["BenchmarkSchedPickEASYSJBF/reference"] = ref
	cur := parsed(t)
	slow := cur["BenchmarkSchedPickEASYSJBF/reference"]
	slow.NsPerOp *= 2
	cur["BenchmarkSchedPickEASYSJBF/reference"] = slow
	out, failures := diff(base, cur, 25, 1000)
	want := "baseline measured on baseline cpu, GOMAXPROCS=2, go1.0; this run on some cpu, GOMAXPROCS=8, " + runtime.Version()
	if failures != 1 || !strings.Contains(out, want) {
		t.Fatalf("failing entry printed without stamps (%d failures):\n%s", failures, out)
	}
	if n := strings.Count(out, "measured on"); n != 1 {
		t.Fatalf("%d stamp lines for one failure:\n%s", n, out)
	}
}

func TestDiffZeroAllocBaselineIsAGuarantee(t *testing.T) {
	base := parsed(t)
	cur := parsed(t)
	inc := cur["BenchmarkSchedPickEASYSJBF/incremental"]
	inc.AllocsPerOp = 1
	cur["BenchmarkSchedPickEASYSJBF/incremental"] = inc
	out, failures := diff(base, cur, 25, 1000)
	if failures != 1 || !strings.Contains(out, "ALLOCS 0 -> 1") {
		t.Fatalf("0 -> 1 allocs/op not caught (%d failures):\n%s", failures, out)
	}
}

func TestDiffMissingBenchmarkFails(t *testing.T) {
	base := parsed(t)
	cur := parsed(t)
	delete(cur, "BenchmarkSchedPickEASYSJBF/reference")
	out, failures := diff(base, cur, 25, 1000)
	if failures != 1 || !strings.Contains(out, "MISSING") {
		t.Fatalf("lost coverage not caught (%d failures):\n%s", failures, out)
	}
}

func TestDiffNewBenchmarkIsNotAFailure(t *testing.T) {
	base := parsed(t)
	cur := parsed(t)
	cur["BenchmarkBrandNew"] = Measurement{NsPerOp: 1}
	out, failures := diff(base, cur, 25, 1000)
	if failures != 0 || !strings.Contains(out, "not in baseline") {
		t.Fatalf("new benchmark handled wrong (%d failures):\n%s", failures, out)
	}
}

func TestUpdateMergesIntoBaseline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	if _, err := updateBaseline(path, parsed(t)); err != nil {
		t.Fatal(err)
	}
	// A one-benchmark run moves that entry, adds a new one and keeps
	// every entry it did not measure.
	faster := Measurement{NsPerOp: 12, HasAllocs: true}
	n, err := updateBaseline(path, map[string]Measurement{
		"BenchmarkSchedPickEASYSJBF/reference": faster,
		"BenchmarkBrandNew":                    {NsPerOp: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	base, err := readBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	want := len(parsed(t)) + 1
	if n != want || len(base.Benchmarks) != want {
		t.Fatalf("baseline holds %d entries (reported %d), want %d: %v", len(base.Benchmarks), n, want, base.Benchmarks)
	}
	if got := base.Benchmarks["BenchmarkSchedPickEASYSJBF/reference"]; got != faster {
		t.Errorf("measured entry not updated: %+v", got)
	}
	if got := base.Benchmarks["BenchmarkSchedPickEASYSJBF/incremental"]; got != parsed(t)["BenchmarkSchedPickEASYSJBF/incremental"] {
		t.Errorf("unmeasured entry changed: %+v", got)
	}
	if base.Note != baselineNote {
		t.Errorf("note = %q", base.Note)
	}
}

// TestUnstampedBaselineLoads: a baseline written before entries carried
// stamps still loads and gates, and -update stamps only what it measures.
func TestUnstampedBaselineLoads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	old := `{"note": "n", "benchmarks": {
  "BenchmarkSchedPickEASYSJBF/reference": {"ns_per_op": 1148276, "allocs_per_op": 21, "has_allocs": true},
  "BenchmarkSchedSimEndToEnd/easy-sjbf-incremental": {"ns_per_op": 101000000, "allocs_per_op": 60000, "has_allocs": true}
}}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	base, err := readBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	cur := parsed(t)
	slow := cur["BenchmarkSchedSimEndToEnd/easy-sjbf-incremental"]
	slow.NsPerOp *= 2
	cur["BenchmarkSchedSimEndToEnd/easy-sjbf-incremental"] = slow
	out, failures := diff(base.Benchmarks, cur, 25, 1000)
	if failures != 1 || !strings.Contains(out, "baseline measured on an unrecorded machine; this run on some cpu") {
		t.Fatalf("unstamped baseline gated wrong (%d failures):\n%s", failures, out)
	}

	measured := parsed(t)
	if _, err := updateBaseline(path, map[string]Measurement{
		"BenchmarkSchedPickEASYSJBF/reference": measured["BenchmarkSchedPickEASYSJBF/reference"],
	}); err != nil {
		t.Fatal(err)
	}
	if base, err = readBaseline(path); err != nil {
		t.Fatal(err)
	}
	if got := base.Benchmarks["BenchmarkSchedPickEASYSJBF/reference"].Machine; got.CPU != "some cpu" || got.GOMAXPROCS != 8 {
		t.Errorf("measured entry stamped %+v", got)
	}
	if got := base.Benchmarks["BenchmarkSchedSimEndToEnd/easy-sjbf-incremental"].Machine; got != (machine{}) {
		t.Errorf("unmeasured entry gained stamp %+v", got)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), `"machine"`); n != 1 {
		t.Errorf("written baseline holds %d machine stamps, want 1:\n%s", n, data)
	}
}

// TestGatedPatternMatchesCI: the note -update writes, the checked-in
// baseline's note, the CI perf job and the documented regeneration
// command all name the same benchmark set.
func TestGatedPatternMatchesCI(t *testing.T) {
	want := "-bench '" + gatedPattern + "'"
	for _, f := range []string{"../../.github/workflows/ci.yml", "../../docs/PERFORMANCE.md", "../../README.md"} {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), want) {
			t.Errorf("%s does not run %s", f, want)
		}
	}
	base, err := readBaseline("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	if base.Note != baselineNote || !strings.Contains(baselineNote, want) {
		t.Errorf("checked-in note %q, want %q", base.Note, baselineNote)
	}
}

// TestRun pins the command's exit statuses: 2 for a usage error, 1 for
// a failed gate or an unreadable input, 0 for a pass.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "bench.out")
	if err := os.WriteFile(bench, []byte(sampleBench), 0o644); err != nil {
		t.Fatal(err)
	}
	slow := filepath.Join(dir, "slow.out")
	if err := os.WriteFile(slow, []byte(strings.Replace(sampleBench, "1148276 ns/op", "2296552 ns/op", 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	baseline := filepath.Join(dir, "baseline.json")
	var stdout, stderr strings.Builder
	if code := run([]string{"-baseline", baseline, "-update", bench}, &stdout, &stderr); code != 0 {
		t.Fatalf("-update exit %d, stderr: %s", code, stderr.String())
	}
	cases := []struct {
		name string
		args []string
		code int
		want string
	}{
		{"no-argument", nil, 2, "usage: benchdiff"},
		{"zero-threshold", []string{"-threshold", "0", bench}, 2, "-threshold must be > 0"},
		{"missing-baseline", []string{"-baseline", filepath.Join(dir, "none.json"), bench}, 1, "none.json"},
		{"missing-input", []string{"-baseline", baseline, filepath.Join(dir, "none.out")}, 1, "none.out"},
		{"regression", []string{"-baseline", baseline, slow}, 1, "benchdiff: FAIL"},
		{"pass", []string{"-baseline", baseline, bench}, 0, "benchdiff: ok"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d (stderr: %s)", code, tc.code, stderr.String())
			}
			if out := stdout.String() + stderr.String(); !strings.Contains(out, tc.want) {
				t.Errorf("output does not mention %q:\n%s", tc.want, out)
			}
		})
	}
}
