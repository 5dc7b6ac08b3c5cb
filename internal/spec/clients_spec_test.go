package spec

import (
	"reflect"
	"testing"
)

// The clients: block — schema decoding on both workload forms,
// validation surfaced positionally, and passthrough into resolution
// and generation. docs/WORKLOADS.md documents the schema these tests
// pin.

const clientsSpec = `
kind: campaign
jobs: 120
workloads:
  - preset: KTH-SP2
    clients:
      - name: web
        fraction: 0.75
        arrival: poisson
      - fraction: 0.25
        arrival: gamma
        shape: 0.4
        envelope: [1, 0.5, 0]
        envelope_period: 7200
        users: 9
        runtime_log_mean: 8.5
        runtime_log_sigma: 1.2
        class_sigma: 0.3
        serial_fraction: 0.5
        max_job_procs_fraction: 0.25
`

func TestClientsDecode(t *testing.T) {
	path := writeSpec(t, t.TempDir(), "clients.yaml", clientsSpec)
	s, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) != 1 || len(s.Workloads[0].Clients) != 2 {
		t.Fatalf("decoded %d workloads / clients %v", len(s.Workloads), s.Workloads)
	}
	c0, c1 := s.Workloads[0].Clients[0], s.Workloads[0].Clients[1]
	if c0.Name != "web" || c0.Fraction != 0.75 || c0.Arrival != "poisson" {
		t.Fatalf("first client decoded as %+v", c0)
	}
	if c1.Name != "" || c1.Fraction != 0.25 || c1.Arrival != "gamma" || c1.Shape != 0.4 {
		t.Fatalf("second client decoded as %+v", c1)
	}
	if !reflect.DeepEqual(c1.Envelope, []float64{1, 0.5, 0}) || c1.EnvelopePeriod != 7200 || c1.Users != 9 {
		t.Fatalf("second client envelope decoded as %+v", c1)
	}
	for name, p := range map[string]*float64{
		"runtime_log_mean": c1.RuntimeLogMean, "runtime_log_sigma": c1.RuntimeLogSigma,
		"class_sigma": c1.ClassSigma, "serial_fraction": c1.SerialFraction,
		"max_job_procs_fraction": c1.MaxJobProcsFraction,
	} {
		if p == nil {
			t.Fatalf("override %s not decoded", name)
		}
	}
	if *c1.RuntimeLogMean != 8.5 || *c1.SerialFraction != 0.5 || *c1.MaxJobProcsFraction != 0.25 {
		t.Fatalf("override values wrong: %+v", c1)
	}
	// The overrides must be distinct allocations, not five views of one
	// loop variable.
	if c1.RuntimeLogMean == c1.RuntimeLogSigma || *c1.RuntimeLogSigma != 1.2 || *c1.ClassSigma != 0.3 {
		t.Fatalf("override pointers alias: %+v", c1)
	}
}

func TestClientsDecodeErrors(t *testing.T) {
	loadErr(t, "workloads:\n  - preset: KTH-SP2\n    clients: 3\n", "clients must be a list", "3")
	loadErr(t, "workloads:\n  - preset: KTH-SP2\n    clients: []\n", "must not be empty", "3")
	loadErr(t, "workloads:\n  - preset: KTH-SP2\n    clients:\n      - arrival: poisson\n", "needs a fraction", "4")
	loadErr(t, "workloads:\n  - preset: KTH-SP2\n    clients:\n      - fraction: 1\n        burst: 2\n", `unknown field "burst"`, "")
	loadErr(t, "workloads:\n  - preset: KTH-SP2\n    clients:\n      - name: x\n        fraction: 1\n      - name: x\n        fraction: 1\n", "duplicate client name", "4")
	loadErr(t, "workloads:\n  - preset: KTH-SP2\n    clients:\n      - fraction: 1\n        arrival: fractal\n", "unknown arrival process", "4")
}

// TestClientsOnConfigForm: the clients block rides on inline config
// workloads exactly as on presets.
func TestClientsOnConfigForm(t *testing.T) {
	path := writeSpec(t, t.TempDir(), "inline.yaml", `
kind: campaign
workloads:
  - name: micro
    config:
      max_procs: 48
      jobs: 150
      users: 24
      user_zipf_exponent: 1.1
      classes_per_user: 3
      runtime_log_mean: 7.6
      runtime_log_sigma: 1.5
      class_sigma: 0.4
      max_runtime: 43200
      serial_fraction: 0.3
      max_job_procs_fraction: 1.0
      target_load: 1.0
      default_walltime: 14400
      default_walltime_frac: 0.1
      overestimate_shape: 2.0
      min_request: 1800
      kill_fraction: 0.05
      crash_fraction: 0.03
      session_stickiness: 0.4
      burst_fraction: 0.5
      burst_gap: 120
      class_stickiness: 0.6
      seed: 0x5eed
    clients:
      - name: a
        fraction: 2
      - name: b
        fraction: 1
`)
	s, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := s.ResolvedWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || len(rs[0].Clients) != 2 || rs[0].Config.Name != "micro" {
		t.Fatalf("resolved %+v", rs)
	}
	ws, err := s.GenerateWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 1 || !reflect.DeepEqual(ws[0].Clients, []string{"a", "b"}) {
		t.Fatalf("generated workload clients %v, want [a b]", ws[0].Clients)
	}
	if len(ws[0].Jobs) != 150 {
		t.Fatalf("generated %d jobs, want 150", len(ws[0].Jobs))
	}
}

// TestResolvedWorkloadsCarriesClients: resolution keeps the clients
// attached to their entry while WorkloadConfigs (the configs-only view)
// still resolves the same set.
func TestResolvedWorkloadsCarriesClients(t *testing.T) {
	path := writeSpec(t, t.TempDir(), "clients.yaml", clientsSpec)
	s, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := s.ResolvedWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || len(rs[0].Clients) != 2 {
		t.Fatalf("resolved %+v", rs)
	}
	if rs[0].Config.Jobs != 120 {
		t.Fatalf("spec scaling ignored: %d jobs", rs[0].Config.Jobs)
	}
	cfgs, err := s.WorkloadConfigs()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 1 || cfgs[0].Name != rs[0].Config.Name {
		t.Fatalf("WorkloadConfigs diverged from ResolvedWorkloads: %+v", cfgs)
	}
}

// TestShardsTopLevel: the sharded driver and its shards: key are gone,
// so a spec still using the key fails loudly, at its line, instead of
// silently running sequentially.
func TestShardsTopLevel(t *testing.T) {
	loadErr(t, `kind: campaign
jobs: 50
stream: true
shards: 2
clusters:
  - 100
  - 64x1.5
`, `unknown field "shards"`, "4")
}
