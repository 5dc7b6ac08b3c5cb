package spec

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzSpecYAML throws arbitrary input at the strict YAML-subset parser
// and the schema decoder: malformed input must come back as a positional
// error, never a panic, and whatever decodes must also resolve workload
// configurations and face the grid's rules without panicking. The checked-in specs seed the
// corpus so the fuzzer starts from every accepted construct.
func FuzzSpecYAML(f *testing.F) {
	specDir := filepath.Join("..", "..", "specs")
	if entries, err := os.ReadDir(specDir); err == nil {
		for _, e := range entries {
			if filepath.Ext(e.Name()) != ".yaml" {
				continue
			}
			if b, err := os.ReadFile(filepath.Join(specDir, e.Name())); err == nil {
				f.Add(string(b))
			}
		}
	}
	for _, s := range []string{
		"",
		"kind: campaign\n",
		"kind: robustness\nscenarios:\n  - light\n",
		"workloads:\n  - preset: KTH-SP2\n    jobs: 10\n",
		"triples:\n  - predictor: ml\n    over: sq\n    under: lin\n    weight: largearea\n",
		"stream: true\njobs: 5\n",
		"output:\n  tables: [1, 6]\n  figures: [3]\n",
		"clusters:\n  - 100\n  - 64x1.5\n  - slow=32x0.5\nrouting: least-loaded\n",
		"clusters:\n  - name: big\n    procs: 200\n    speed: 2.0\nrouting:\n  - round-robin\n  - spillover\n",
		"clusters:\n  - 0x\nrouting: []\n",
		"trace:\n  file: run-trace.jsonl\n  profile: true\n",
		"trace:\n  file: \"\"\n",
		"trace: on\n",
		"kind: robustness\ntrace:\n  profile: false\noutput:\n  perf: true\n",
		"workloads:\n  - preset: KTH-SP2\n    clients:\n      - name: a\n        fraction: 0.5\n      - fraction: 0.5\n        arrival: gamma\n        shape: 0.7\n",
		"workloads:\n  - preset: KTH-SP2\n    clients:\n      - fraction: 1\n        envelope: [1, 0]\n        envelope_period: 3600\n        users: 3\n        runtime_log_mean: 8\n",
		"shards: 2\nstream: true\n",
		"serve:\n  addr: 127.0.0.1:9090\n  max_procs: 128\n  scale: 100\n  triple: easy\n  clients: [batch, interactive]\n",
		"serve:\n  max_procs: 64\n  triple:\n    predictor: ml\n    over: sq\n",
		"serve:\n  max_procs: 0\n",
		"a:\n - b\n -   c: [1, \"two\", 3]\n",
		"include: other.yaml\n",
		"\t\n: :\n- -\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data string) {
		tree, err := parseYAML("fuzz.yaml", data)
		if err != nil || tree == nil {
			return
		}
		s := &Spec{Path: "fuzz.yaml"}
		if err := s.decode(tree); err != nil {
			return
		}
		// A spec that decodes must resolve (or reject) its workload set
		// without panicking; generation is deliberately not exercised.
		_, _ = s.WorkloadConfigs()
		_ = s.Check()
	})
}
