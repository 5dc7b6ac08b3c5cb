package spec

import (
	"strings"
	"testing"
)

// TestClustersDecode covers both entry forms — flag-syntax scalars and
// mappings — plus normalization (auto-names, validation).
func TestClustersDecode(t *testing.T) {
	path := writeSpec(t, t.TempDir(), "fed.yaml", `
clusters:
  - 100
  - 64x1.5
  - slow=32x0.5
  - name: tiny
    procs: 16
    speed: 2.0
routing:
  - round-robin
  - least-loaded
`)
	s, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Federated() {
		t.Fatal("spec not federated")
	}
	if len(s.Clusters) != 4 {
		t.Fatalf("got %d clusters, want 4", len(s.Clusters))
	}
	wantNames := []string{"c0", "c1", "slow", "tiny"}
	wantProcs := []int64{100, 64, 32, 16}
	wantSpeed := []float64{1.0, 1.5, 0.5, 2.0}
	for i, c := range s.Clusters {
		if c.Name != wantNames[i] || c.Procs != wantProcs[i] || c.SpeedFactor() != wantSpeed[i] {
			t.Errorf("cluster %d = %+v, want %s=%dx%v", i, c, wantNames[i], wantProcs[i], wantSpeed[i])
		}
	}
	feds := s.Federations()
	if len(feds) != 2 {
		t.Fatalf("got %d federations, want 2", len(feds))
	}
	if feds[0].Routing != "round-robin" || feds[1].Routing != "least-loaded" {
		t.Errorf("routing axis = %q, %q", feds[0].Routing, feds[1].Routing)
	}
}

// TestRoutingScalarAndDefault: a bare routing scalar works, and a
// clusters-only spec defaults to one round-robin federation.
func TestRoutingScalarAndDefault(t *testing.T) {
	path := writeSpec(t, t.TempDir(), "scalar.yaml", "clusters:\n  - 100\nrouting: spillover\n")
	s, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Routings) != 1 || s.Routings[0] != "spillover" {
		t.Fatalf("routings = %v", s.Routings)
	}

	path = writeSpec(t, t.TempDir(), "default.yaml", "clusters:\n  - 100\n  - 50\n")
	s, err = Load(path)
	if err != nil {
		t.Fatal(err)
	}
	feds := s.Federations()
	if len(feds) != 1 || feds[0].Routing != "round-robin" {
		t.Fatalf("default federation = %+v, want one round-robin", feds)
	}
}

// TestClustersValidation pins the positional rejections of the
// federation keys.
func TestClustersValidation(t *testing.T) {
	loadErr(t, "kind: robustness\nclusters:\n  - 100\n", "clusters only apply to campaign", "3")
	loadErr(t, "routing: round-robin\n", "routing needs clusters", "1")
	loadErr(t, "clusters:\n  - 100\noutput:\n  figures: [3]\n", "figures do not apply to a federated campaign", "4")
	loadErr(t, "clusters: []\n", "clusters must not be empty", "1")
	loadErr(t, "clusters:\n  - 100\nrouting: shortest-queue-first\n", `unknown routing policy "shortest-queue-first"`, "3")
	loadErr(t, "clusters:\n  - 100\nrouting:\n  - spillover\n  - spillover\n", `duplicate routing policy "spillover"`, "5")
	loadErr(t, "clusters:\n  - 0\n", "must be positive", "2")
	loadErr(t, "clusters:\n  - 100xfast\n", "bad speed factor", "2")
	loadErr(t, "clusters:\n  - a=100\n  - a=50\n", `duplicate cluster name "a"`, "2")
	loadErr(t, "clusters:\n  - name: x\n", "needs procs", "2")
	loadErr(t, "clusters:\n  - procs: 100\n    nodes: 4\n", `unknown field "nodes"`, "3")
	loadErr(t, "clusters:\n  - procs: 100\n    speed: -1\n", "speed factor -1 must be positive", "3")
}

// TestClustersIncludeMerge: the federation axes obey the same wholesale
// list-replacement semantics as every other spec list.
func TestClustersIncludeMerge(t *testing.T) {
	dir := t.TempDir()
	writeSpec(t, dir, "base.yaml", "clusters:\n  - 100\n  - 100\nrouting:\n  - round-robin\n  - spillover\n")
	path := writeSpec(t, dir, "top.yaml", "include: base.yaml\nclusters:\n  - big=200\n")
	s, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Clusters) != 1 || s.Clusters[0].Name != "big" {
		t.Fatalf("clusters not replaced wholesale: %+v", s.Clusters)
	}
	if len(s.Routings) != 2 {
		t.Fatalf("inherited routings = %v, want 2 from the include", s.Routings)
	}
}

// TestCheckedInFederatedSpec pins the walkthrough spec's shape.
func TestCheckedInFederatedSpec(t *testing.T) {
	s, err := Load("../../specs/federated.yaml")
	if err != nil {
		t.Fatal(err)
	}
	if !s.Federated() {
		t.Fatal("specs/federated.yaml is not federated")
	}
	if len(s.Federations()) < 2 {
		t.Errorf("want at least two routing policies, got %v", s.Routings)
	}
	var widest int64
	for _, c := range s.Clusters {
		if c.Procs > widest {
			widest = c.Procs
		}
	}
	if widest < 100 {
		t.Errorf("widest cluster %d procs; the KTH-SP2 preset needs >= 100", widest)
	}
	if s.Output.Journal == "" || !s.Output.Resume {
		t.Errorf("federated spec should journal and resume: %+v", s.Output)
	}
	c := s.Campaign(nil)
	if len(c.Federations) != len(s.Routings) || c.Seed != s.Seed {
		t.Errorf("federated Campaign wiring: %+v", c)
	}
	if !strings.Contains(s.Path, "federated.yaml") {
		t.Errorf("path = %q", s.Path)
	}
}
