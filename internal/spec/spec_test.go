package spec

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// writeSpec drops a spec file into a temp dir and returns its path.
func writeSpec(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// loadErr loads a one-off spec and checks the grid's rules on it; the
// error must be non-nil and positional (name:line).
func loadErr(t *testing.T, content, wantSub string, wantLine string) {
	t.Helper()
	path := writeSpec(t, t.TempDir(), "bad.yaml", content)
	s, err := Load(path)
	if err == nil {
		err = s.Check()
	}
	if err == nil {
		t.Fatalf("spec accepted:\n%s", content)
	}
	if !strings.Contains(err.Error(), wantSub) {
		t.Errorf("error %q does not mention %q", err, wantSub)
	}
	if wantLine != "" && !strings.Contains(err.Error(), "bad.yaml:"+wantLine+":") {
		t.Errorf("error %q not positioned at bad.yaml:%s", err, wantLine)
	}
}

func TestUnknownFieldsRejected(t *testing.T) {
	loadErr(t, "kind: campaign\nworklads: []\n", `unknown field "worklads"`, "2")
	loadErr(t, "output:\n  journel: x.jsonl\n", `unknown field "journel"`, "2")
	loadErr(t, "workloads:\n  - preset: KTH-SP2\n    job: 10\n", `unknown field "job"`, "3")
	loadErr(t, `
kind: robustness
scenarios:
  - name: s
    windows: 1
    drain_frac: 0.5
`, `unknown field "drain_frac"`, "6")
}

func TestBadNamesArePositional(t *testing.T) {
	loadErr(t, "kind: robustness\nscenarios:\n  - extreme\n", `unknown intensity "extreme"`, "3")
	loadErr(t, `
kind: robustness
scenarios:
  - intensity: hvy
`, `unknown intensity "hvy"`, "4")
	loadErr(t, "triples:\n  - eazy\n", `unknown triple "eazy"`, "2")
	loadErr(t, "triples:\n  - predictor: psychic\n", `unknown predictor "psychic"`, "2")
	loadErr(t, `
triples:
  - predictor: ml
    corrector: wishful
`, `unknown corrector "wishful"`, "4")
	loadErr(t, "workloads:\n  - preset: KTH-SP3\n", `unknown preset "KTH-SP3"`, "2")
	loadErr(t, "kind: tournament\n", `unknown kind "tournament"`, "1")
}

// TestTripleAliases: a triple list takes the command lines' spellings
// too, since both resolve names through core.TripleByName.
func TestTripleAliases(t *testing.T) {
	s, err := Load(writeSpec(t, t.TempDir(), "aliases.yaml", "triples: [best, paper-best, clairvoyant, clairvoyant-easy]\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := []core.Triple{core.PaperBest(), core.PaperBest(), core.ClairvoyantEASY(), core.ClairvoyantEASY()}
	if len(s.Triples) != len(want) {
		t.Fatalf("%d triples, want %d", len(s.Triples), len(want))
	}
	for i, tr := range s.Triples {
		if tr.Name() != want[i].Name() {
			t.Errorf("triple %d = %s, want %s", i, tr.Name(), want[i].Name())
		}
	}
}

func TestValueValidation(t *testing.T) {
	loadErr(t, "jobs: -5\n", "jobs must be >= 0", "1")
	loadErr(t, "seed: many\n", "unsigned integer", "1")
	loadErr(t, "repeats: 3\n", "repeats only applies to robustness", "1")
	loadErr(t, "scenarios:\n  - light\n", "scenarios only apply to robustness", "2")
	loadErr(t, "output:\n  tables: [2]\n", "unknown tables entry 2", "2")
	loadErr(t, "kind: robustness\noutput:\n  tables: [1]\n", "tables only apply to campaign", "3")
	loadErr(t, "output:\n  resume: true\n", "resume needs a journal", "2")
	loadErr(t, `
kind: robustness
scenarios:
  - name: broken
    events:
      - at: 10
        action: melt
        procs: 4
`, `unknown action "melt"`, "7")
}

func TestTraceBlock(t *testing.T) {
	path := writeSpec(t, t.TempDir(), "traced.yaml", `
kind: campaign
jobs: 100
trace:
  file: run-trace.jsonl
  profile: true
`)
	s, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Trace.File != "run-trace.jsonl" || !s.Trace.Profile {
		t.Fatalf("trace block misdecoded: %+v", s.Trace)
	}
	// The -trace flag is the outermost override layer.
	override := "elsewhere.jsonl"
	s.Apply(Overrides{Trace: &override})
	if s.Trace.File != "elsewhere.jsonl" || !s.Trace.Profile {
		t.Fatalf("trace override misapplied: %+v", s.Trace)
	}
}

func TestTraceBlockValidation(t *testing.T) {
	loadErr(t, "trace:\n  flie: x.jsonl\n", `unknown field "flie"`, "2")
	loadErr(t, "trace:\n  file: \"\"\n", "expected a non-empty string", "2")
	loadErr(t, "trace:\n  profile: yes-please\n", "expected true or false", "2")
	loadErr(t, "trace: on\n", "trace must be a mapping", "1")
}

// TestUnbalancedScriptRejected: the balance check needs the resolved
// machines, so it fires in WorkloadConfigs, naming scenario and machine.
func TestUnbalancedScriptRejected(t *testing.T) {
	path := writeSpec(t, t.TempDir(), "unbalanced.yaml", `
kind: robustness
jobs: 100
workloads:
  - KTH-SP2
scenarios:
  - name: blackout
    events:
      - at: 10
        action: drain
        procs: 4
`)
	s, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.WorkloadConfigs()
	if err == nil || !strings.Contains(err.Error(), "does not restore its drains") {
		t.Fatalf("unbalanced script not rejected: %v", err)
	}
	if !strings.Contains(err.Error(), "blackout") || !strings.Contains(err.Error(), "KTH-SP2") {
		t.Errorf("error %q does not name scenario and machine", err)
	}
}

func TestIncludeCycleDetected(t *testing.T) {
	dir := t.TempDir()
	writeSpec(t, dir, "a.yaml", "include: b.yaml\n")
	writeSpec(t, dir, "b.yaml", "include: a.yaml\n")
	_, err := Load(filepath.Join(dir, "a.yaml"))
	if err == nil || !strings.Contains(err.Error(), "include cycle") {
		t.Fatalf("cycle not detected: %v", err)
	}
	// Self-include is the smallest cycle.
	writeSpec(t, dir, "self.yaml", "include: self.yaml\n")
	_, err = Load(filepath.Join(dir, "self.yaml"))
	if err == nil || !strings.Contains(err.Error(), "include cycle") {
		t.Fatalf("self-cycle not detected: %v", err)
	}
}

// TestOverridePrecedence pins the chain flags > spec > include on a
// field-by-field basis, including nested output merging and wholesale
// list replacement.
func TestOverridePrecedence(t *testing.T) {
	dir := t.TempDir()
	writeSpec(t, dir, "base.yaml", `
kind: robustness
seed: 7
jobs: 1000
triples:
  - easy
  - easy++
output:
  journal: base.jsonl
  perf: true
`)
	path := writeSpec(t, dir, "top.yaml", `
include: base.yaml
jobs: 300
triples:
  - paper-best
output:
  journal: top.jsonl
`)
	s, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	// Spec beats include; untouched include fields survive.
	if s.Jobs != 300 {
		t.Errorf("jobs = %d, want 300 (spec over include)", s.Jobs)
	}
	if s.Seed != 7 {
		t.Errorf("seed = %d, want 7 (inherited from include)", s.Seed)
	}
	if len(s.Triples) != 1 || s.Triples[0].Name() != core.PaperBest().Name() {
		t.Errorf("triples not replaced wholesale: %d entries", len(s.Triples))
	}
	if s.Output.Journal != "top.jsonl" {
		t.Errorf("journal = %q, want top.jsonl", s.Output.Journal)
	}
	if !s.Output.Perf {
		t.Error("perf lost in nested output merge")
	}
	// Flags beat both.
	jobs, seed := 50, uint64(99)
	s.Apply(Overrides{Jobs: &jobs, Seed: &seed})
	if s.Jobs != 50 || s.Seed != 99 {
		t.Errorf("flag overrides not applied: jobs=%d seed=%d", s.Jobs, s.Seed)
	}
}

// TestFlagJobsOverridesPerWorkloadScaling: -jobs rescales even entries
// that pinned their own jobs in the spec, matching flag-only behaviour.
func TestFlagJobsOverridesPerWorkloadScaling(t *testing.T) {
	path := writeSpec(t, t.TempDir(), "s.yaml", `
workloads:
  - preset: KTH-SP2
    jobs: 500
  - preset: CTC-SP2
`)
	s, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	jobs := 120
	s.Apply(Overrides{Jobs: &jobs})
	cfgs, err := s.WorkloadConfigs()
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range cfgs {
		if cfg.Jobs != 120 {
			t.Errorf("%s scaled to %d jobs, want 120", cfg.Name, cfg.Jobs)
		}
	}
}

func TestIncludeChainPositions(t *testing.T) {
	// An error in an included file must point into that file.
	dir := t.TempDir()
	writeSpec(t, dir, "broken-base.yaml", "kind: robustness\ntriples:\n  - nope\n")
	path := writeSpec(t, dir, "top.yaml", "include: broken-base.yaml\njobs: 10\n")
	_, err := Load(path)
	if err == nil || !strings.Contains(err.Error(), "broken-base.yaml:3:") {
		t.Fatalf("error not positioned in the included file: %v", err)
	}
}

func TestDefaultsAndCounts(t *testing.T) {
	path := writeSpec(t, t.TempDir(), "minimal.yaml", "kind: robustness\njobs: 100\n")
	s, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 1 || s.Repeats != 1 {
		t.Errorf("defaults: seed=%d repeats=%d", s.Seed, s.Repeats)
	}
	if s.TripleCount() != 5 || s.ScenarioCount() != 4 {
		t.Errorf("default axes: triples=%d scenarios=%d", s.TripleCount(), s.ScenarioCount())
	}
	cfgs, err := s.WorkloadConfigs()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 6 {
		t.Errorf("default workloads = %d, want the six presets", len(cfgs))
	}
}

// TestCheckedInSpecsResolve keeps every file under specs/ loadable and
// resolvable — the same guarantee the CI spec-smoke step enforces with
// `campaign -spec ... -validate`.
func TestCheckedInSpecsResolve(t *testing.T) {
	matches, err := filepath.Glob("../../specs/*.yaml")
	if err != nil || len(matches) == 0 {
		t.Fatalf("no checked-in specs found: %v", err)
	}
	for _, path := range matches {
		s, err := Load(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if _, err := s.WorkloadConfigs(); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
}

// TestNightlyIncludesRobustness pins the checked-in include chain.
func TestNightlyIncludesRobustness(t *testing.T) {
	s, err := Load("../../specs/nightly.yaml")
	if err != nil {
		t.Fatal(err)
	}
	if s.Kind != "robustness" {
		t.Errorf("kind = %q", s.Kind)
	}
	if s.Jobs != 800 || s.Repeats != 2 {
		t.Errorf("overrides not applied: jobs=%d repeats=%d", s.Jobs, s.Repeats)
	}
	if len(s.Triples) != 5 {
		t.Errorf("inherited triples = %d, want 5", len(s.Triples))
	}
	if s.Output.Journal == "" || !s.Output.Resume {
		t.Errorf("nightly journal settings missing: %+v", s.Output)
	}
}
