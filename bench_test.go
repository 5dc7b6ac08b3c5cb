// Package repro's root benchmark harness regenerates every table and
// figure of the paper's evaluation (Section 6) as testing.B benchmarks.
// Each benchmark runs the corresponding experiment on scaled-down preset
// workloads (see workload.Scaled), reports the headline quantities as
// custom benchmark metrics, and — under -v — logs the rendered table so
// the output can be compared against EXPERIMENTS.md.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package repro

import (
	"bytes"
	"cmp"
	"context"
	"slices"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/correct"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/ml"
	"repro/internal/platform"
	"repro/internal/predict"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/swf"
	"repro/internal/trace"
	"repro/internal/workload"
)

// benchJobs is the per-log scale used by the benchmarks: large enough for
// the learning curves and queue dynamics to develop, small enough for the
// full campaign to run in minutes.
const benchJobs = 3000

var (
	workloadCache   = map[string]*trace.Workload{}
	workloadCacheMu sync.Mutex
)

// benchWorkload returns a cached scaled preset (generation itself is
// benchmarked separately in the workload package).
func benchWorkload(b *testing.B, name string) *trace.Workload {
	b.Helper()
	workloadCacheMu.Lock()
	defer workloadCacheMu.Unlock()
	if w, ok := workloadCache[name]; ok {
		return w
	}
	cfg, err := workload.Scaled(name, benchJobs)
	if err != nil {
		b.Fatal(err)
	}
	w, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	workloadCache[name] = w
	return w
}

func runTriple(b *testing.B, w *trace.Workload, tr core.Triple) *sim.Result {
	b.Helper()
	res, err := sim.Run(w, tr.Config())
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// --- Table 1: EASY vs EASY-Clairvoyant per log ------------------------

func benchmarkTable1(b *testing.B, log string) {
	w := benchWorkload(b, log)
	var easy, clair float64
	for i := 0; i < b.N; i++ {
		easy = metrics.AVEbsld(runTriple(b, w, core.EASY()))
		clair = metrics.AVEbsld(runTriple(b, w, core.ClairvoyantEASY()))
	}
	b.ReportMetric(easy, "EASY-AVEbsld")
	b.ReportMetric(clair, "Clairvoyant-AVEbsld")
	b.ReportMetric(100*(easy-clair)/easy, "reduction-%")
}

func BenchmarkTable1_KTHSP2(b *testing.B)      { benchmarkTable1(b, "KTH-SP2") }
func BenchmarkTable1_CTCSP2(b *testing.B)      { benchmarkTable1(b, "CTC-SP2") }
func BenchmarkTable1_SDSCSP2(b *testing.B)     { benchmarkTable1(b, "SDSC-SP2") }
func BenchmarkTable1_SDSCBLUE(b *testing.B)    { benchmarkTable1(b, "SDSC-BLUE") }
func BenchmarkTable1_Curie(b *testing.B)       { benchmarkTable1(b, "Curie") }
func BenchmarkTable1_Metacentrum(b *testing.B) { benchmarkTable1(b, "Metacentrum") }

// --- Tables 6 and 7 / Figure 3: the full campaign ----------------------

// campaignResults runs the full 130-triple campaign over all six presets
// once per benchmark invocation set (it is the expensive part shared by
// Table 6, Table 7 and Figure 3).
var (
	campaignOnce    sync.Once
	campaignResults []campaign.RunResult
	campaignErr     error
)

func benchCampaign(b *testing.B) []campaign.RunResult {
	b.Helper()
	campaignOnce.Do(func() {
		ws, err := campaign.DefaultWorkloads(benchJobs)
		if err != nil {
			campaignErr = err
			return
		}
		c := &campaign.Campaign{Workloads: ws}
		campaignResults, campaignErr = c.Run(context.Background())
	})
	if campaignErr != nil {
		b.Fatal(campaignErr)
	}
	return campaignResults
}

func BenchmarkTable6_CampaignOverview(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		results := benchCampaign(b)
		out = report.Table6(results)
	}
	b.Log("\n" + out)
}

func BenchmarkTable7_CrossValidation(b *testing.B) {
	var avgRed float64
	for i := 0; i < b.N; i++ {
		results := benchCampaign(b)
		cv, err := campaign.LeaveOneOut(results)
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + report.Table7(cv, results))
		var sum float64
		var n int
		for _, c := range cv {
			if easy, ok := campaign.Score(results, c.HeldOut, core.EASY().Name()); ok && easy > 0 {
				sum += 100 * (easy - c.Score) / easy
				n++
			}
		}
		if n > 0 {
			avgRed = sum / float64(n)
		}
	}
	// The paper's headline: 28 % average AVEbsld reduction vs EASY.
	b.ReportMetric(avgRed, "avg-reduction-vs-EASY-%")
}

func BenchmarkFigure3_CrossLogCorrelation(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		results := benchCampaign(b)
		out = report.Figure3(results, "SDSC-BLUE", "Metacentrum")
	}
	b.Log("\n" + out)
}

// --- Table 8 / Figures 4 and 5: prediction analysis on Curie -----------

func predictionSeries(b *testing.B) []report.PredictionSeries {
	b.Helper()
	w := benchWorkload(b, "Curie")
	series, err := report.AnalyzePredictions(w)
	if err != nil {
		b.Fatal(err)
	}
	return series
}

func BenchmarkTable8_PredictionError(b *testing.B) {
	var series []report.PredictionSeries
	for i := 0; i < b.N; i++ {
		series = predictionSeries(b)
	}
	b.Log("\n" + report.Table8(series))
	for _, s := range series {
		switch s.Name {
		case "AVE2":
			b.ReportMetric(s.MAE, "AVE2-MAE")
			b.ReportMetric(s.MeanELoss, "AVE2-ELoss")
		case "E-Loss Regression":
			b.ReportMetric(s.MAE, "ELoss-MAE")
			b.ReportMetric(s.MeanELoss, "ELoss-ELoss")
		}
	}
}

func BenchmarkFigure4_ErrorECDF(b *testing.B) {
	var series []report.PredictionSeries
	for i := 0; i < b.N; i++ {
		series = predictionSeries(b)
	}
	b.Log("\n" + report.Figure4(series))
	// Headline shape: the E-Loss model under-predicts more than the
	// symmetric squared regression (its ECDF is shifted left).
	for _, s := range series {
		if s.Name == "E-Loss Regression" {
			e := metrics.NewECDF(s.Errors)
			b.ReportMetric(e.At(0), "ELoss-underprediction-frac")
		}
		if s.Name == "Squared Loss Regression" {
			e := metrics.NewECDF(s.Errors)
			b.ReportMetric(e.At(0), "Squared-underprediction-frac")
		}
	}
}

func BenchmarkFigure5_PredictedValueECDF(b *testing.B) {
	var series []report.PredictionSeries
	for i := 0; i < b.N; i++ {
		series = predictionSeries(b)
	}
	b.Log("\n" + report.Figure5(series))
	for _, s := range series {
		if s.Name == "E-Loss Regression" {
			e := metrics.NewECDF(s.Predicted)
			b.ReportMetric(e.At(3600), "ELoss-pred<=1h-frac")
		}
	}
}

// --- Scheduler hot path: Pick micro-benchmarks -------------------------

// schedPickState builds a saturated mid-simulation scheduler state from
// a preset workload: the machine is loaded to near capacity with running
// jobs (predictions = requested times, the regime with the widest
// availability profiles), and the following jobs form a large waiting
// queue in which nothing fits right now — the steady state a backlogged
// simulation spends most of its time in, where every Pick must scan to
// the end before declining. Loading keeps idle processors free on top
// of the residual ones, and every queued job is wider than all that are
// free.
func schedPickState(b *testing.B, log string, queued int, idle int64) (*platform.Machine, []*job.Job, int64) {
	b.Helper()
	w := benchWorkload(b, log)
	m := platform.New(w.MaxProcs)
	queue := make([]*job.Job, 0, queued)
	i := 0
	// Load the machine until under 2% of its processors are idle. The
	// running jobs' predicted ends sit far beyond any instant the
	// benchmark loops will reach (per-event benchmarks advance the
	// clock), keeping the availability profile stationary across
	// iterations while preserving the preset's spread of release times.
	for ; i < len(w.Jobs) && (m.Free()-idle)*50 > m.Total(); i++ {
		j := job.FromSWF(&w.Jobs[i])
		j.Prediction = j.ClampPrediction(j.Request) + (1 << 40)
		if j.Procs > m.Free()-idle {
			continue
		}
		j.Started = true
		j.Start = 0
		m.Start(j)
	}
	// Queue the rest, widening any job that would fit the residual idle
	// capacity so the state is the post-drain one the engine reaches
	// after starting everything startable.
	for ; i < len(w.Jobs) && len(queue) < queued; i++ {
		j := job.FromSWF(&w.Jobs[i])
		j.Prediction = j.ClampPrediction(j.Request)
		if j.Procs <= m.Free() {
			j.Procs += m.Free()
		}
		queue = append(queue, j)
	}
	if len(queue) < queued {
		b.Fatalf("workload %s too small: %d queued, want %d", log, len(queue), queued)
	}
	return m, queue, 1
}

// benchmarkPick measures the simulator's hottest pattern — Pick called
// again and again within one scheduling event (sim.Run re-asks after
// every started job) — for one policy on the large-queue preset. The
// incremental policies answer repeat calls from their caches; the
// reference policies rebuild availability state from scratch every time.
func benchmarkPick(b *testing.B, p sched.Policy) {
	m, queue, now := schedPickState(b, "Metacentrum", 1000, 0)
	p.Pick(now, m, queue) // prime incremental state outside the timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Pick(now, m, queue)
	}
	b.ReportMetric(float64(m.RunningCount()), "running-jobs")
	b.ReportMetric(float64(len(queue)), "queued-jobs")
}

// benchmarkPickPerEvent advances the clock one second per call so every
// Pick is the first of a fresh scheduling event: the incremental
// policies pay their per-event work while the reference policies pay
// the same full rebuild as always. Since nothing fits now, incremental
// Conservative's work is refilling its scratch profile from the
// machine (Machine.FillAvailability, one pass over the release order)
// plus one Profile.Fits pass over the queue: its scan is cut before the
// first reservation, so no job is planned (Profile.Place); the
// planning case below times that. Instants stay far below the running
// jobs' predicted ends, so every iteration sees the same availability
// shape.
func benchmarkPickPerEvent(b *testing.B, p sched.Policy) {
	m, queue, now := schedPickState(b, "Metacentrum", 1000, 0)
	benchmarkPerEvent(b, p, m, queue, now)
}

// benchmarkPickPerEventPlanning is benchmarkPickPerEvent on a state
// whose scan is never cut: one processor stays idle and a one-processor
// job waits at the queue's tail, so it fits now at every instant, and
// every Pick plans the whole queue, one Profile.Place per job, before
// answering with that job.
func benchmarkPickPerEventPlanning(b *testing.B, p sched.Policy) {
	m, queue, now := schedPickState(b, "Metacentrum", 1000, 1)
	tail := queue[len(queue)-1]
	tail.Procs = 1
	if p.Pick(now, m, queue) != tail {
		b.Fatal("the tail job is not the one that fits now")
	}
	benchmarkPerEvent(b, p, m, queue, now)
}

// benchmarkPerEvent primes p at now, then times one Pick per op, each at
// a fresh instant.
func benchmarkPerEvent(b *testing.B, p sched.Policy, m *platform.Machine, queue []*job.Job, now int64) {
	p.Pick(now, m, queue)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Pick(now+int64(i)+1, m, queue)
	}
}

func BenchmarkSchedPickConservative(b *testing.B) {
	b.Run("incremental", func(b *testing.B) { benchmarkPick(b, sched.NewConservative()) })
	b.Run("reference", func(b *testing.B) { benchmarkPick(b, sched.ReferenceConservative{}) })
	b.Run("incremental-per-event", func(b *testing.B) { benchmarkPickPerEvent(b, sched.NewConservative()) })
	b.Run("reference-per-event", func(b *testing.B) { benchmarkPickPerEvent(b, sched.ReferenceConservative{}) })
	b.Run("incremental-per-event-planning", func(b *testing.B) { benchmarkPickPerEventPlanning(b, sched.NewConservative()) })
}

// schedShadowState builds the state EASY computes its shadow in on a
// large machine. The per-event subcases above never reach the shadow:
// the scaled Metacentrum machine has no idle processor left, so Pick
// declines before reserving. Here, jobs of the unscaled huge-synthetic
// preset run on its 1,024 processors — several hundred of them, narrow
// ones preferred, with predicted ends spread by their requests and
// pushed past any instant the loop reaches — and a few processors stay
// idle. The queue head needs the idle processors plus the next twelve
// releases, and every other queued job is widened past the idle count,
// so each Pick computes the shadow and then rules the whole queue out
// before declining.
func schedShadowState(b *testing.B, queued int) (*platform.Machine, []*job.Job) {
	b.Helper()
	cfg, err := workload.Preset("huge-synthetic")
	if err != nil {
		b.Fatal(err)
	}
	g, err := workload.NewGenSource(cfg)
	if err != nil {
		b.Fatal(err)
	}
	next := func() *job.Job {
		r, err := g.NextJob()
		if err != nil {
			b.Fatal(err)
		}
		return job.FromSWF(&r)
	}
	m := platform.New(cfg.MaxProcs)
	var running []*job.Job
	for m.Free() > 24 {
		j := next()
		if j.Procs > 4 || j.Procs > m.Free()-16 {
			continue
		}
		j.Prediction = j.ClampPrediction(j.Request) + (1 << 40)
		j.Started = true
		m.Start(j)
		running = append(running, j)
	}
	slices.SortFunc(running, func(a, b *job.Job) int {
		return cmp.Or(cmp.Compare(a.PredictedEnd(), b.PredictedEnd()), cmp.Compare(a.ID, b.ID))
	})
	head := next()
	head.Procs = m.Free()
	for _, j := range running[:12] {
		head.Procs += j.Procs
	}
	head.Prediction = head.ClampPrediction(head.Request)
	queue := []*job.Job{head}
	for len(queue) < queued {
		j := next()
		j.Prediction = j.ClampPrediction(j.Request)
		j.Procs = max(j.Procs, m.Free()+1)
		queue = append(queue, j)
	}
	return m, queue
}

func BenchmarkSchedPickEASYSJBF(b *testing.B) {
	b.Run("incremental", func(b *testing.B) { benchmarkPick(b, sched.NewEASY(sched.SJBFOrder)) })
	b.Run("reference", func(b *testing.B) { benchmarkPick(b, sched.ReferenceEASY{Backfill: sched.SJBFOrder}) })
	b.Run("incremental-per-event", func(b *testing.B) { benchmarkPickPerEvent(b, sched.NewEASY(sched.SJBFOrder)) })
	b.Run("reference-per-event", func(b *testing.B) { benchmarkPickPerEvent(b, sched.ReferenceEASY{Backfill: sched.SJBFOrder}) })
	// shadow-per-event advances the clock once per Pick, so every call
	// recomputes the head's shadow against several hundred running jobs.
	// Every queued job is wider than the idle processors, so the index
	// walk skips all of its blocks and the shadow is what it times.
	b.Run("shadow-per-event", func(b *testing.B) {
		m, queue := schedShadowState(b, 1000)
		p := sched.NewEASY(sched.SJBFOrder)
		p.Pick(1, m, queue)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Pick(int64(i)+2, m, queue)
		}
		b.ReportMetric(float64(m.RunningCount()), "running-jobs")
	})
	// churn-per-event holds a backlog of the size the 1M-job replay's
	// largest same-instant burst reaches (48,436 jobs), every job too wide
	// to backfill. Each op submits one narrow job through OnSubmit, picks
	// it at a fresh instant and starts it through OnStart, so it times the
	// shadow, a walk past every block ahead of the new job's, and one
	// insert and one removal in the index.
	b.Run("churn-per-event", func(b *testing.B) {
		m, queue := schedShadowState(b, 48000)
		preds := make([]int64, len(queue))
		for i, j := range queue {
			preds[i] = j.Prediction
		}
		slices.Sort(preds)
		narrow := make([]*job.Job, 16)
		for k := range narrow {
			// Predictions in the backlog's top quarter: most blocks lie
			// ahead of the new job's.
			narrow[k] = &job.Job{ID: int64(1<<40 + k), Procs: 1, Prediction: preds[len(preds)*(k+48)/64]}
		}
		p := sched.NewEASY(sched.SJBFOrder)
		p.Pick(1, m, queue)
		op := func(i int) {
			j := narrow[i%len(narrow)]
			now := int64(i) + 2
			queue = append(queue, j)
			p.OnSubmit(j, now)
			if got := p.Pick(now, m, queue); got != j {
				b.Fatalf("picked %v, want the narrow job %d", got, j.ID)
			}
			p.OnStart(j, now)
			queue = queue[:len(queue)-1]
		}
		op(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op(i + 1)
		}
		b.ReportMetric(float64(len(queue)), "queued-jobs")
	})
}

// BenchmarkSchedSimEndToEnd shows what the incremental hot path buys a
// whole simulation (policy cost plus everything else).
func BenchmarkSchedSimEndToEnd(b *testing.B) {
	w := benchWorkload(b, "KTH-SP2")
	run := func(mk func() sched.Policy) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, err := sim.Run(w, sim.Config{
					Policy:    mk(),
					Predictor: predict.NewUserAverage(2),
					Corrector: correct.Incremental{},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("conservative-incremental", run(func() sched.Policy { return sched.NewConservative() }))
	b.Run("conservative-reference", run(func() sched.Policy { return sched.ReferenceConservative{} }))
	b.Run("easy-sjbf-incremental", run(func() sched.Policy { return sched.NewEASY(sched.SJBFOrder) }))
	b.Run("easy-sjbf-reference", run(func() sched.Policy { return sched.ReferenceEASY{Backfill: sched.SJBFOrder} }))
}

// BenchmarkSchedSimStream measures the bounded-memory engine end to end
// against the same preset the preloading benchmark uses, collector
// attached — the steady-state cost of the lazy intake, the retirement
// sink and the one-pass metrics. allocs/op additionally guards the
// per-job overhead of the streaming path. The AVE2 sessions price the
// policies; paper-best is the paper's own triple, whose on-line learning
// (feature extraction, prediction and one NAG step per job) is most of
// its cost. swf-easy-sjbf reads the easy-sjbf input back from an
// in-memory SWF file, as `simsched -swf FILE -stream` does, so the SWF
// scan, the keep status mode and the cleaner run in every op.
func BenchmarkSchedSimStream(b *testing.B) {
	w := benchWorkload(b, "KTH-SP2")
	var file bytes.Buffer
	if err := swf.Write(&file, &swf.Trace{Header: swf.Header{MaxProcs: w.MaxProcs}, Jobs: w.Jobs}); err != nil {
		b.Fatal(err)
	}
	fromWorkload := func() (workload.Source, error) { return workload.FromWorkload(w), nil }
	fromSWF := func() (workload.Source, error) {
		src, err := workload.NewStatusSource(workload.NewScanSource(swf.NewScanner(bytes.NewReader(file.Bytes()))), swf.StatusKeep)
		if err != nil {
			return nil, err
		}
		return workload.NewCleanSource(src, w.MaxProcs), nil
	}
	run := func(open func() (workload.Source, error), mk func() sim.Config) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				col := metrics.NewCollector()
				cfg := mk()
				cfg.Sink = col
				src, err := open()
				if err != nil {
					b.Fatal(err)
				}
				res, err := sim.RunStream(w.Name, w.MaxProcs, src, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.Finished != col.Finished() {
					b.Fatalf("sink saw %d of %d finishes", col.Finished(), res.Finished)
				}
			}
		}
	}
	ave2 := func(mk func() sched.Policy) func() sim.Config {
		return func() sim.Config {
			return sim.Config{Policy: mk(), Predictor: predict.NewUserAverage(2), Corrector: correct.Incremental{}}
		}
	}
	sjbf := ave2(func() sched.Policy { return sched.NewEASY(sched.SJBFOrder) })
	b.Run("easy-sjbf", run(fromWorkload, sjbf))
	b.Run("conservative", run(fromWorkload, ave2(func() sched.Policy { return sched.NewConservative() })))
	b.Run("paper-best", run(fromWorkload, core.PaperBest().Config))
	b.Run("swf-easy-sjbf", run(fromSWF, sjbf))
}

// BenchmarkSchedSimStreamGen runs generator-to-metrics fully streamed —
// the huge-synthetic pipeline at bench scale, nothing materialized.
func BenchmarkSchedSimStreamGen(b *testing.B) {
	cfg, err := workload.Scaled("huge-synthetic", benchJobs)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := workload.NewGenSource(cfg)
		if err != nil {
			b.Fatal(err)
		}
		col := metrics.NewCollector()
		scfg := core.EASYPlusPlus().Config()
		scfg.Sink = col
		if _, err := sim.RunStream(cfg.Name, cfg.MaxProcs, g, scfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedSimRouted measures the federated engine end to end: the
// KTH-SP2 trace routed across three heterogeneous clusters, each running
// its own easy-sjbf-incremental session. Against the single-machine
// easy-sjbf-incremental baseline this prices the routing stage plus the
// N-cluster event-loop bookkeeping.
func BenchmarkSchedSimRouted(b *testing.B) {
	w := benchWorkload(b, "KTH-SP2")
	clusters := []platform.Cluster{
		{Name: "big", Procs: w.MaxProcs},
		{Name: "fast", Procs: w.MaxProcs / 2, Speed: 1.5},
		{Name: "slow", Procs: w.MaxProcs / 2, Speed: 0.5},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := sim.RunFederated(w, sim.FederatedConfig{
			Clusters: clusters,
			Router:   &sched.RoundRobin{},
			Session: func() sim.Config {
				return sim.Config{
					Policy:    sched.NewEASY(sched.SJBFOrder),
					Predictor: predict.NewUserAverage(2),
					Corrector: correct.Incremental{},
				}
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Finished != len(w.Jobs) {
			b.Fatalf("finished %d of %d jobs", res.Finished, len(w.Jobs))
		}
	}
}

// BenchmarkSchedSimRoutedStream is the streamed twin of
// BenchmarkSchedSimRouted: the same three-cluster platform and sessions,
// with submissions pulled lazily and retirements folded into a
// per-cluster metrics sink.
func BenchmarkSchedSimRoutedStream(b *testing.B) {
	w := benchWorkload(b, "KTH-SP2")
	clusters := []platform.Cluster{
		{Name: "big", Procs: w.MaxProcs},
		{Name: "fast", Procs: w.MaxProcs / 2, Speed: 1.5},
		{Name: "slow", Procs: w.MaxProcs / 2, Speed: 0.5},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fed := metrics.NewFederated(len(clusters))
		res, err := sim.RunFederatedStream(w.Name, workload.FromWorkload(w), sim.FederatedConfig{
			Clusters: clusters,
			Router:   &sched.RoundRobin{},
			Sink:     fed,
			Session: func() sim.Config {
				return sim.Config{
					Policy:    sched.NewEASY(sched.SJBFOrder),
					Predictor: predict.NewUserAverage(2),
					Corrector: correct.Incremental{},
				}
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		if g := fed.Global(); res.Finished != g.Finished() {
			b.Fatalf("sink saw %d of %d finishes", g.Finished(), res.Finished)
		}
	}
}

// BenchmarkSchedSimStreamHugeThroughput is the headline throughput
// number: the full 1M-job huge-synthetic preset, generator to metrics,
// nothing materialized, reported as jobs/s. One iteration simulates a
// million jobs, so expect a single iteration per benchtime second; the
// jobs/s metric (not ns/op) is the figure docs/PERFORMANCE.md quotes.
func BenchmarkSchedSimStreamHugeThroughput(b *testing.B) {
	cfg, err := workload.Preset("huge-synthetic")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var finished int
	for i := 0; i < b.N; i++ {
		g, err := workload.NewGenSource(cfg)
		if err != nil {
			b.Fatal(err)
		}
		col := metrics.NewCollector()
		scfg := core.EASYPlusPlus().Config()
		scfg.Sink = col
		res, err := sim.RunStream(cfg.Name, cfg.MaxProcs, g, scfg)
		if err != nil {
			b.Fatal(err)
		}
		finished = res.Finished
	}
	b.ReportMetric(float64(finished)*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// --- Ablations (DESIGN.md §5) ------------------------------------------

// BenchmarkAblationBackfillOrder isolates SJBF vs FCFS backfill order
// with clairvoyant predictions (the cleanest view of the ordering
// effect, Table 6's two clairvoyant columns).
func BenchmarkAblationBackfillOrder(b *testing.B) {
	w := benchWorkload(b, "SDSC-SP2")
	var fcfs, sjbf float64
	for i := 0; i < b.N; i++ {
		fcfs = metrics.AVEbsld(runTriple(b, w, core.ClairvoyantEASY()))
		sjbf = metrics.AVEbsld(runTriple(b, w, core.ClairvoyantSJBF()))
	}
	b.ReportMetric(fcfs, "FCFS-order-AVEbsld")
	b.ReportMetric(sjbf, "SJBF-order-AVEbsld")
}

// BenchmarkAblationCorrection compares the three correction mechanisms
// under the same AVE2 predictor and SJBF order.
func BenchmarkAblationCorrection(b *testing.B) {
	w := benchWorkload(b, "KTH-SP2")
	correctors := map[string]correct.Corrector{
		"Requested":   correct.RequestedTime{},
		"Incremental": correct.Incremental{},
		"Doubling":    correct.RecursiveDoubling{},
	}
	scores := map[string]float64{}
	for i := 0; i < b.N; i++ {
		for name, corr := range correctors {
			tr := core.Triple{Predictor: core.PredAve2, Corrector: corr, Backfill: sched.SJBFOrder}
			scores[name] = metrics.AVEbsld(runTriple(b, w, tr))
		}
	}
	for name, s := range scores {
		b.ReportMetric(s, name+"-AVEbsld")
	}
}

// BenchmarkAblationLoss compares the asymmetric E-Loss against the
// symmetric squared loss inside the same triple.
func BenchmarkAblationLoss(b *testing.B) {
	w := benchWorkload(b, "CTC-SP2")
	var eloss, squared float64
	for i := 0; i < b.N; i++ {
		eloss = metrics.AVEbsld(runTriple(b, w, core.PaperBest()))
		tr := core.PaperBest()
		tr.Loss = ml.SquaredLoss
		squared = metrics.AVEbsld(runTriple(b, w, tr))
	}
	b.ReportMetric(eloss, "ELoss-AVEbsld")
	b.ReportMetric(squared, "SquaredLoss-AVEbsld")
}

// BenchmarkAblationWeights sweeps the five Table-3 weighting schemes with
// the E-Loss branch structure fixed.
func BenchmarkAblationWeights(b *testing.B) {
	w := benchWorkload(b, "CTC-SP2")
	scores := map[string]float64{}
	for i := 0; i < b.N; i++ {
		for _, weight := range ml.Weightings {
			tr := core.PaperBest()
			tr.Loss = ml.Loss{Over: ml.Squared, Under: ml.Linear, Weight: weight}
			scores[weight.String()] = metrics.AVEbsld(runTriple(b, w, tr))
		}
	}
	for name, s := range scores {
		b.ReportMetric(s, name+"-AVEbsld")
	}
}

// BenchmarkAblationBasis compares the paper's degree-2 polynomial basis
// against a linear-only model over the same features, via progressive
// validation MAE (predict each job at submission, learn at completion).
func BenchmarkAblationBasis(b *testing.B) {
	w := benchWorkload(b, "KTH-SP2")
	var deg2, lin float64
	for i := 0; i < b.N; i++ {
		deg2 = progressiveMAE(w, 2)
		lin = progressiveMAE(w, 1)
	}
	b.ReportMetric(deg2, "degree2-MAE")
	b.ReportMetric(lin, "linear-MAE")
}

// progressiveMAE trains on-line over the workload in submission order
// (completions at submit+runtime) and returns the prediction MAE.
func progressiveMAE(w *trace.Workload, degree int) float64 {
	cfg := ml.DefaultConfig(ml.SquaredLoss)
	cfg.Degree = degree
	model := ml.NewModel(cfg)
	tracker := ml.NewTracker()
	var absSum float64
	n := 0
	type fin struct {
		at int64
		j  *job.Job
		x  []float64
	}
	var pending []fin
	for i := range w.Jobs {
		rec := &w.Jobs[i]
		j := job.FromSWF(rec)
		keep := pending[:0]
		for _, f := range pending {
			if f.at <= j.Submit {
				model.Observe(f.x, float64(f.j.Runtime), float64(f.j.Procs))
				tracker.OnFinish(f.j, f.at)
			} else {
				keep = append(keep, f)
			}
		}
		pending = keep
		x := tracker.Features(j, j.Submit)
		pred := j.ClampPrediction(int64(model.Predict(x)))
		diff := float64(pred - j.Runtime)
		if diff < 0 {
			diff = -diff
		}
		absSum += diff
		n++
		tracker.OnSubmit(j)
		j.Start = j.Submit
		tracker.OnStart(j)
		pending = append(pending, fin{at: j.Submit + j.Runtime, j: j, x: x})
	}
	return absSum / float64(n)
}
