package sim_test

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The golden layer: a digest of everything each entry point produces
// over a preset × triple × script grid, pinned in testdata/golden.json.
// The differential tests prove the entry points agree with one another;
// this file proves the engine still agrees with the output recorded
// before the event loop was restructured. Regenerate (only after an
// intentional behaviour change) with:
//
//	go test ./internal/sim -run TestGoldenDigests -update

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from the current engine")

const goldenPath = "testdata/golden.json"

// goldenJobs is the per-preset trace length of the grid.
const goldenJobs = 300

// digest is an FNV-1a accumulator over fixed-width encodings.
type digest struct{ h hash.Hash64 }

func newDigest() digest { return digest{fnv.New64a()} }

func (d digest) int(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	d.h.Write(b[:])
}

func (d digest) float(v float64) { d.int(int64(math.Float64bits(v))) }

func (d digest) bool(v bool) {
	if v {
		d.int(1)
	} else {
		d.int(0)
	}
}

func (d digest) str(s string) {
	d.int(int64(len(s)))
	d.h.Write([]byte(s))
}

func (d digest) steps(steps []sim.CapacityStep) {
	d.int(int64(len(steps)))
	for _, s := range steps {
		d.int(s.At)
		d.int(s.Capacity)
	}
}

func (d digest) collector(c *metrics.Collector) {
	d.int(int64(c.Finished()))
	for _, v := range []float64{c.AVEbsld(), c.MaxBsld(), c.MeanWait(), c.MAE(), c.MeanELoss(),
		c.BsldSketch().Quantile(0.5), c.BsldSketch().Quantile(0.99), c.WaitSketch().Quantile(0.9)} {
		d.float(v)
	}
}

func (d digest) sum() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

// stripNanos zeroes the wall-clock field, the one legitimately
// nondeterministic part of a trace event.
func stripNanos(events []obs.Event) []obs.Event {
	out := append([]obs.Event(nil), events...)
	for i := range out {
		out[i].Nanos = 0
	}
	return out
}

// goldenSink hashes the retirement sequence as it happens and feeds a
// per-cluster metrics sink, so the collector sums are pinned too.
type goldenSink struct {
	d   digest
	fed *metrics.Federated
}

func (s *goldenSink) Observe(j *job.Job) {
	for _, v := range []int64{j.ID, int64(j.Cluster), j.Start, j.End, j.Prediction, int64(j.Corrections)} {
		s.d.int(v)
	}
	s.fed.Observe(j)
}

// hashResult folds every deterministic Result and ClusterResult field,
// the retained jobs of a preloading run, and the collectors.
func hashResult(d digest, res *sim.Result, sink *goldenSink) {
	d.str(res.Triple)
	d.str(res.Workload)
	d.str(res.Scenario)
	d.str(res.Routing)
	d.bool(res.Streamed)
	for _, v := range []int64{res.MaxProcs, int64(res.Finished), int64(res.Corrections), int64(res.Canceled),
		res.Makespan, res.Perf.Events, res.Perf.PickCalls, int64(len(res.Jobs))} {
		d.int(v)
	}
	d.steps(res.CapacitySteps)
	for _, j := range res.Jobs {
		d.int(j.ID)
		d.int(int64(j.Cluster))
		d.bool(j.Started)
		d.bool(j.Finished)
		d.bool(j.Canceled)
		d.int(j.Start)
		d.int(j.End)
		d.int(j.Prediction)
		d.int(int64(j.Corrections))
	}
	d.int(int64(len(res.Clusters)))
	for _, c := range res.Clusters {
		d.str(c.Name)
		d.float(c.Speed)
		for _, v := range []int64{c.MaxProcs, int64(c.Routed), int64(c.Finished), int64(c.Canceled),
			int64(c.Corrections), c.Events, c.PickCalls, c.Makespan} {
			d.int(v)
		}
		d.steps(c.CapacitySteps)
	}
	for _, c := range sink.fed.Clusters {
		d.collector(c)
	}
	d.collector(sink.fed.Global())
}

// goldenScripts is the script axis: none, light, and heavy with three
// extra cancellations naming IDs absent from the trace — the case the
// preloading and streaming intakes are documented to count differently.
func goldenScripts(w *trace.Workload) []*scenario.Script {
	light := scenario.Generate(w, scenario.Intensities[1], 0x601d)
	heavy := scenario.Generate(w, scenario.Intensities[3], 0x601d)
	var maxID int64
	for i := range w.Jobs {
		if w.Jobs[i].JobNumber > maxID {
			maxID = w.Jobs[i].JobNumber
		}
	}
	first, last := w.Jobs[0].SubmitTime, w.Jobs[len(w.Jobs)-1].SubmitTime
	for k := int64(1); k <= 3; k++ {
		heavy.Events = append(heavy.Events, scenario.Event{
			Time: first + k*(last-first)/4, Action: scenario.Cancel, JobID: maxID + 1000*k,
		})
	}
	sort.SliceStable(heavy.Events, func(a, b int) bool { return heavy.Events[a].Time < heavy.Events[b].Time })
	return []*scenario.Script{nil, light, heavy}
}

// goldenEntry is one entry point of the grid. run simulates w under
// the triple and script with the given sink and tracer.
type goldenEntry struct {
	name string
	run  func(w *trace.Workload, tr core.Triple, script *scenario.Script, sink sim.JobSink, tracer obs.Tracer) (*sim.Result, error)
	// clusters is the platform size the sink splits by.
	clusters int
}

func goldenEntries() []goldenEntry {
	single := func(tr core.Triple, script *scenario.Script, sink sim.JobSink, tracer obs.Tracer) sim.Config {
		cfg := tr.Config()
		cfg.Script = script
		cfg.Sink = sink
		cfg.Tracer = tracer
		return cfg
	}
	entries := []goldenEntry{
		{name: "Run", clusters: 1, run: func(w *trace.Workload, tr core.Triple, script *scenario.Script, sink sim.JobSink, tracer obs.Tracer) (*sim.Result, error) {
			return sim.Run(w, single(tr, script, sink, tracer))
		}},
		{name: "RunStream", clusters: 1, run: func(w *trace.Workload, tr core.Triple, script *scenario.Script, sink sim.JobSink, tracer obs.Tracer) (*sim.Result, error) {
			return sim.RunStream(w.Name, w.MaxProcs, workload.FromWorkload(w), single(tr, script, sink, tracer))
		}},
		{name: "RunLive", clusters: 1, run: func(w *trace.Workload, tr core.Triple, script *scenario.Script, sink sim.JobSink, tracer obs.Tracer) (*sim.Result, error) {
			return sim.RunLive(w.Name, w.MaxProcs, sim.NewSliceCommands(traceCommands(w, script)), single(tr, nil, sink, tracer))
		}},
	}
	platforms := []struct {
		name     string
		clusters func(maxProcs int64) []platform.Cluster
		routers  []string
	}{
		{"1c", func(m int64) []platform.Cluster { return []platform.Cluster{{Name: "solo", Procs: m}} }, []string{""}},
		{"3c", func(m int64) []platform.Cluster {
			return []platform.Cluster{
				{Name: "big", Procs: m},
				{Name: "mid", Procs: m / 2, Speed: 1.5},
				{Name: "slow", Procs: m, Speed: 0.5},
			}
		}, []string{"round-robin", "least-loaded", "queue-depth", "spillover"}},
	}
	for _, stream := range []bool{false, true} {
		for _, p := range platforms {
			for _, routing := range p.routers {
				name := "RunFederated"
				if stream {
					name = "RunFederatedStream"
				}
				name += "/" + p.name
				if routing != "" {
					name += "/" + routing
				}
				entries = append(entries, goldenEntry{name: name, clusters: len(p.clusters(1)), run: func(w *trace.Workload, tr core.Triple, script *scenario.Script, sink sim.JobSink, tracer obs.Tracer) (*sim.Result, error) {
					fed := sim.FederatedConfig{
						Clusters: p.clusters(w.MaxProcs),
						Session:  func() sim.Config { return tr.Config() },
						Script:   script,
						Sink:     sink,
						Tracer:   tracer,
					}
					if routing != "" {
						r, err := sched.NewRouter(routing)
						if err != nil {
							return nil, err
						}
						fed.Router = r
					}
					if stream {
						return sim.RunFederatedStream(w.Name, workload.FromWorkload(w), fed)
					}
					return sim.RunFederated(w, fed)
				}})
			}
		}
	}
	return entries
}

// goldenDigests computes the digest of every (entry, preset, triple)
// cell, each folding the three script levels; the heavy level also
// folds the JSONL trace with its one wall-clock field zeroed.
func goldenDigests(t *testing.T) map[string]string {
	t.Helper()
	triples := []core.Triple{core.EASYPlusPlus(), core.PaperBest(), core.ConservativeBF()}
	entries := goldenEntries()
	out := make(map[string]string)
	for _, preset := range workload.PresetNames() {
		cfg, err := workload.Scaled(preset, goldenJobs)
		if err != nil {
			t.Fatal(err)
		}
		w, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		scripts := goldenScripts(w)
		for _, e := range entries {
			for _, tr := range triples {
				d := newDigest()
				for si, script := range scripts {
					sink := &goldenSink{d: d, fed: metrics.NewFederated(e.clusters)}
					var col *obs.Collector
					var tracer obs.Tracer
					if si == len(scripts)-1 {
						col = &obs.Collector{}
						tracer = col
					}
					res, err := e.run(w, tr, script, sink, tracer)
					if err != nil {
						t.Fatalf("%s/%s/%s script %d: %v", e.name, preset, tr.Name(), si, err)
					}
					hashResult(d, res, sink)
					if col != nil {
						for _, ev := range stripNanos(col.Events()) {
							line, err := obs.MarshalLine(&ev)
							if err != nil {
								t.Fatal(err)
							}
							d.h.Write(line)
						}
					}
				}
				out[e.name+"/"+preset+"/"+tr.Name()] = d.sum()
			}
		}
	}
	return out
}

// TestGoldenDigests holds every entry point to the pinned digests.
func TestGoldenDigests(t *testing.T) {
	got := goldenDigests(t)
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	bad := 0
	for _, k := range keys {
		if got[k] != want[k] {
			bad++
			t.Errorf("%s: digest %s, golden %s", k, got[k], want[k])
		}
	}
	if len(got) != len(want) {
		t.Errorf("grid has %d cells, golden file %d", len(got), len(want))
	}
	if bad > 0 {
		t.Logf("%d of %d cells changed", bad, len(want))
	}
}
