package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"testing"

	"repro/internal/campaign"
	"repro/internal/scenario"
)

// tinyScale keeps every workload of a test run under a few seconds.
var tinyScale = scale{
	gridJobs: 150, gridPresets: []string{"KTH-SP2", "Curie"}, gridTriples: 6,
	robJobs: 150, robPresets: []string{"KTH-SP2", "Curie"}, replayJobs: 5000,
	daemonBase: 200, daemonFactor: 1.5, daemonSteps: 3, daemonRef: 300, daemonSatPerS: 200,
}

// tinyEnv is an untraced tiny-scale run of one second, checked against
// no golden digest.
func tinyEnv(t *testing.T) *env {
	t.Helper()
	heap := startHeapSampler()
	t.Cleanup(heap.stop)
	return &env{seed: defaultSeed, seconds: 1, procs: 2, scale: tinyScale,
		work: t.TempDir(), log: io.Discard, golden: map[string]string{}, heap: heap}
}

// TestMetricTablesMatchBenchmarkJSON keeps the benchmark's metric
// tables and BENCHMARK.json in step.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		label string
		got   []struct{ Name, Unit string }
		want  []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", c.label, len(c.got), len(c.want))
		}
		for i, m := range c.want {
			if c.got[i].Name != m.name || c.got[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", c.label, i, c.got[i].Name, c.got[i].Unit, m.name, m.unit)
			}
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %s, benchmark %s", i, spec.Workloads[i].Name, w.name)
		}
	}
}

// TestEveryWorkloadPrintsEveryMetric runs each workload at the tiny
// scale in both modes and checks the result line: every metric of the
// mode, with its unit, and no failure.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			e := tinyEnv(t)
			e.trace = traced
			res, err := runOne(context.Background(), w.name, e)
			if err != nil {
				t.Fatalf("%s trace %v: %v", w.name, traced, err)
			}
			b, _ := json.Marshal(res)
			var line result
			if err := json.Unmarshal(b, &line); err != nil {
				t.Fatalf("%s trace %v: result does not round-trip: %v", w.name, traced, err)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s trace %v: correct %v, %d failed of %d", w.name, traced, line.Correct, line.Failed, line.Attempted)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s trace %v: %d metrics, want %d", w.name, traced, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := line.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace %v: metric %s = %+v, want unit %s", w.name, traced, d.name, m, d.unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v", w.name, d.name, m.Value)
				}
			}
		}
	}
}

// TestUsageErrors checks that bad arguments exit with status 2 and
// print no result.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "daemon", "--trace", "2"},
		{"--workload", "daemon", "--seconds", "0"},
		{"--workload", "daemon", "--scale", "tiny"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

// TestCorruptedDigestFails checks that a golden digest mismatch is a
// failed operation and a match is not.
func TestCorruptedDigestFails(t *testing.T) {
	e := tinyEnv(t)
	res, err := runOne(context.Background(), "robustness", e)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("clean run failed %d operations", res.Failed)
	}
	key := "robustness/seed1"
	e.golden[key] = "0123456789abcdef"
	bad, err := runOne(context.Background(), "robustness", e)
	if err != nil {
		t.Fatal(err)
	}
	if bad.Failed != 1 || bad.Correct {
		t.Fatalf("corrupted golden digest: correct %v, %d failed of %d", bad.Correct, bad.Failed, bad.Attempted)
	}
}

// TestRejectedRequestFails checks that requests the daemon rejects are
// failed operations, while the summary check still holds over the jobs
// it accepted.
func TestRejectedRequestFails(t *testing.T) {
	e := tinyEnv(t)
	e.rejectEvery = 10
	res, err := runOne(context.Background(), "daemon", e)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("rejected requests were not counted: correct %v, %d failed of %d", res.Correct, res.Failed, res.Attempted)
	}
	want := int64(e.scale.daemonRef * 0.25 * e.seconds / 10)
	if res.Failed < want-refWindows || res.Failed > want+refWindows {
		t.Fatalf("%d failed operations, want about %d (one in ten reference submits)", res.Failed, want)
	}
}

// TestWrappedCellMatchesHarness checks that a cell replayed under
// probes has the digest of the same cell run by the campaign harness,
// on both the preloading and the streaming path.
func TestWrappedCellMatchesHarness(t *testing.T) {
	ws, _, err := generatePresets([]string{"Curie"}, 200)
	if err != nil {
		t.Fatal(err)
	}
	in := &gridInputs{workloads: ws, triples: gridTriples(4)}
	c := campaign.Campaign{Workloads: in.workloads, Triples: in.triples, Parallelism: 1}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(res))
	for i, r := range res {
		names[i] = r.Workload + "/" + r.Triple.Name()
	}
	harness := collectCampaign(in, names, res, nil)
	for i := range harness {
		got, p := tracePreloaded(in, i)
		if got.err != nil || got.digest != harness[i].digest {
			t.Errorf("cell %s: wrapped %q (%v), harness %q", got.name, got.digest, got.err, harness[i].digest)
		}
		if p.policy.pick.n != got.perf.PickCalls {
			t.Errorf("cell %s: probe saw %d picks, engine %d", got.name, p.policy.pick.n, got.perf.PickCalls)
		}
	}

	// The streaming path, under a disruption script.
	in.columns = []string{"heavy"}
	in.triples = campaign.DefaultRobustnessTriples()
	in.scripts = [][]*scenario.Script{{scenario.Generate(ws[0], scenario.Intensities[3], 7)}}
	r := campaign.Robustness{Workloads: ws, Triples: in.triples, Scenarios: []campaign.Scenario{{Script: in.scripts[0][0]}},
		Stream: true, Parallelism: 1}
	rres, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, rr := range rres {
		h := collectCampaign(in, []string{in.cellName(i)}, []campaign.RunResult{rr.RunResult}, nil)[i]
		got, _ := traceStreamed(in, i)
		if got.err != nil || got.digest != h.digest {
			t.Errorf("streamed cell %s: wrapped %q (%v), harness %q", got.name, got.digest, got.err, h.digest)
		}
	}
}

// TestHistQuantile checks the histogram's resolution.
func TestHistQuantile(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got, want := h.quantile(q), q*100000
		if got < want*0.94 || got > want*1.06 {
			t.Errorf("q%.2f = %v, want %v within 6%%", q, got, want)
		}
	}
}
