package main

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// cellOut is one grid cell's outputs: what the digest covers, and the
// run's counters.
type cellOut struct {
	name   string
	policy string
	digest string
	jobs   int
	perf   sim.Perf
	err    error
}

// cellDigest renders the outputs a cell's digest covers.
func cellDigest(name string, avebsld, maxBsld, meanWait, util float64, corrections int) string {
	return strings.Join([]string{name, floatKey(avebsld), floatKey(maxBsld), floatKey(meanWait), floatKey(util), fmt.Sprint(corrections)}, "|")
}

// gridInputs is one grid's generated inputs: the traces, the triples,
// and for the robustness sweep one disruption script per (trace,
// intensity).
type gridInputs struct {
	workloads []*trace.Workload
	triples   []core.Triple
	columns   []string
	scripts   [][]*scenario.Script
}

func (g *gridInputs) cells() int {
	return len(g.workloads) * max(1, len(g.columns)) * len(g.triples)
}

// pool is how many consecutive cells the harness runs in one worker
// pool: the whole grid, or one preset's cells for the robustness sweep,
// which runs one campaign.Robustness per preset because its scripts are
// per preset.
func (g *gridInputs) pool() int {
	if g.scripts != nil {
		return g.cells() / len(g.workloads)
	}
	return g.cells()
}

// cell splits a grid index into (workload, column, triple), the
// campaign harness's workload-major, triple-minor order.
func (g *gridInputs) cell(i int) (wi, ci, ti int) {
	cols := max(1, len(g.columns))
	ti = i % len(g.triples)
	ci = (i / len(g.triples)) % cols
	wi = i / (len(g.triples) * cols)
	return
}

func (g *gridInputs) cellName(i int) string {
	wi, ci, ti := g.cell(i)
	if len(g.columns) == 0 {
		return g.workloads[wi].Name + "/" + g.triples[ti].Name()
	}
	return g.workloads[wi].Name + "/" + g.columns[ci] + "/" + g.triples[ti].Name()
}

// generatePresets generates the named presets (all six when nil) at
// the given job count with their own seeds, timing the generator.
func generatePresets(names []string, jobs int) ([]*trace.Workload, time.Duration, error) {
	if names == nil {
		names = workload.PresetNames()
	}
	t := time.Now()
	var out []*trace.Workload
	for _, n := range names {
		cfg, err := workload.Scaled(n, jobs)
		if err != nil {
			return nil, 0, err
		}
		w, err := workload.Generate(cfg)
		if err != nil {
			return nil, 0, err
		}
		out = append(out, w)
	}
	return out, time.Since(t), nil
}

// gridTriples returns the first n campaign triples (all 130 when 0),
// keeping both backfill orders represented.
func gridTriples(n int) []core.Triple {
	all := core.CampaignTriples()
	if n <= 0 || n >= len(all) {
		return all
	}
	half := len(all) / 2
	out := append([]core.Triple(nil), all[:n/2]...)
	return append(out, all[half:half+n-n/2]...)
}

// runPaperGrid is the paper's evaluation: every campaign triple over
// the six presets at the scale's job count, on the validating preloading
// driver, through campaign.Campaign.Run on gridWorkers workers — exactly
// `campaign -jobs 1000 -p 1`. As there, the seed is the campaign's base seed
// and the traces are the standard presets: with seed-derived traces the
// grid's rate spread by 18% and its p90 cell by 27% (interquartile
// range over median) across ten seeds, beyond the 25% a bound may
// allow.
func runPaperGrid(ctx context.Context, e *env) (*outcome, error) {
	var genMs []float64
	in, setupS, err := setup(e, func() (*gridInputs, func(), error) {
		ws, d, err := generatePresets(e.scale.gridPresets, e.scale.gridJobs)
		genMs = append(genMs, float64(d)/1e6)
		return &gridInputs{workloads: ws, triples: gridTriples(e.scale.gridTriples)}, nil, err
	})
	if err != nil {
		return nil, err
	}
	e.logf("paper-grid: %d presets x %d triples = %d cells at %d jobs, %d workers",
		len(in.workloads), len(in.triples), in.cells(), e.scale.gridJobs, e.procs)
	untraced := func(ctx context.Context) []cellOut {
		// One campaign per preset, with a calibration burst before each
		// (cells do not depend on the rest of the grid).
		var names []string
		var all []campaign.RunResult
		var errs []error
		for _, w := range in.workloads {
			e.cal.burst()
			c := campaign.Campaign{Workloads: []*trace.Workload{w}, Triples: in.triples, Parallelism: e.procs, Seed: e.seed}
			res, err := c.Run(ctx)
			errs = append(errs, err)
			for _, r := range res {
				names = append(names, r.Workload+"/"+r.Triple.Name())
				all = append(all, r)
			}
		}
		return collectCampaign(in, names, all, errors.Join(errs...))
	}
	traced := func(i int) (cellOut, *probes) { return tracePreloaded(in, i) }
	out, err := runGrid(ctx, e, in, untraced, traced)
	if err != nil {
		return nil, err
	}
	out.e2e["setup_s"] = setupS
	out.layer["workload.generate_ms"] = median(genMs)
	out.goldenKey = "paper-grid"
	return out, nil
}

// robustnessIntensities are the sweep's disruption columns.
var robustnessIntensities = scenario.Intensities

// runRobustness is the nightly disruption sweep: the five robustness
// triples under none/light/moderate/heavy over the six presets at the
// scale's job count, streamed, with scripts generated at set-up. As in
// `campaign -robustness -seed N`, the seed drives the disruption
// scripts and the traces are the standard presets: with seeded traces
// the sweep's rate ranged from 37k to 64k jobs/s over five seeds,
// because Curie's Conservative cells, most of its time, are
// heavy-tailed in the trace draw.
func runRobustness(ctx context.Context, e *env) (*outcome, error) {
	var genMs, scriptMs []float64
	in, setupS, err := setup(e, func() (*gridInputs, func(), error) {
		ws, d, err := generatePresets(e.scale.robPresets, e.scale.robJobs)
		if err != nil {
			return nil, nil, err
		}
		genMs = append(genMs, float64(d)/1e6)
		t := time.Now()
		in := &gridInputs{workloads: ws, triples: campaign.DefaultRobustnessTriples()}
		for _, it := range robustnessIntensities {
			in.columns = append(in.columns, it.Name)
		}
		// The same per-(workload, intensity) seeds campaign.Robustness
		// derives, so the default seed reproduces
		// `campaign -robustness -stream -jobs 1500 -p 1`.
		for wi, w := range ws {
			row := make([]*scenario.Script, len(robustnessIntensities))
			for ii, it := range robustnessIntensities {
				seed := e.seed ^ (uint64(wi)*0x9e3779b97f4a7c15 + uint64(ii)*0xbf58476d1ce4e5b9)
				row[ii] = scenario.Generate(w, it, seed)
			}
			in.scripts = append(in.scripts, row)
		}
		scriptMs = append(scriptMs, float64(time.Since(t))/1e6)
		return in, nil, nil
	})
	if err != nil {
		return nil, err
	}
	e.logf("robustness: %d presets x %d intensities x %d triples = %d cells at %d jobs, streamed, %d workers",
		len(in.workloads), len(in.columns), len(in.triples), in.cells(), e.scale.robJobs, e.procs)
	untraced := func(ctx context.Context) []cellOut {
		// One sweep per preset, since each carries its own scripts
		// (see gridInputs.pool).
		var names []string
		var all []campaign.RunResult
		var errs []error
		for wi, w := range in.workloads {
			e.cal.burst()
			cols := make([]campaign.Scenario, len(in.columns))
			column := map[string]string{}
			for ci := range cols {
				cols[ci] = campaign.Scenario{Script: in.scripts[wi][ci]}
				column[cols[ci].Name()] = in.columns[ci]
			}
			r := campaign.Robustness{Workloads: []*trace.Workload{w}, Triples: in.triples, Scenarios: cols,
				Seed: e.seed, Stream: true, Parallelism: e.procs}
			res, err := r.Run(ctx)
			errs = append(errs, err)
			for _, c := range res {
				names = append(names, c.Workload+"/"+column[c.Intensity]+"/"+c.Triple.Name())
				all = append(all, c.RunResult)
			}
		}
		return collectCampaign(in, names, all, errors.Join(errs...))
	}
	traced := func(i int) (cellOut, *probes) { return traceStreamed(in, i) }
	out, err := runGrid(ctx, e, in, untraced, traced)
	if err != nil {
		return nil, err
	}
	out.e2e["setup_s"] = setupS
	out.layer["workload.generate_ms"] = median(genMs)
	out.layer["scenario.generate_ms"] = median(scriptMs)
	out.goldenKey = "robustness"
	return out, nil
}

// collectCampaign turns a harness's results into cell outputs in grid
// order. names[i] is the cell name of res[i]; the harness leaves failed
// cells out, so any cell without a result is reported as failed.
func collectCampaign(in *gridInputs, names []string, res []campaign.RunResult, runErr error) []cellOut {
	byName := make(map[string]*campaign.RunResult, len(res))
	for i := range res {
		byName[names[i]] = &res[i]
	}
	out := make([]cellOut, in.cells())
	for i := range out {
		n := in.cellName(i)
		wi, _, ti := in.cell(i)
		out[i] = cellOut{name: n, policy: in.triples[ti].Policy().Name(), jobs: len(in.workloads[wi].Jobs)}
		r := byName[n]
		if r == nil {
			out[i].err = fmt.Errorf("no result (%v)", runErr)
			continue
		}
		out[i].perf = r.Perf
		out[i].digest = cellDigest(n, r.AVEbsld, r.MaxBsld, r.MeanWait, r.Utilization, r.Corrections)
	}
	return out
}

// tracePreloaded replays one paper-grid cell the way the campaign
// harness runs it (sim.Run, validation, batch metrics), under probes.
func tracePreloaded(in *gridInputs, i int) (cellOut, *probes) {
	wi, _, ti := in.cell(i)
	w, tr := in.workloads[wi], in.triples[ti]
	cfg := tr.Config()
	p := wrap(&cfg)
	c := cellOut{name: in.cellName(i), policy: tr.Policy().Name(), jobs: len(w.Jobs)}
	res, err := sim.Run(w, cfg)
	if err != nil {
		c.err = err
		return c, p
	}
	c.perf = res.Perf
	t := time.Now()
	if verrs := sim.ValidateResult(res); len(verrs) != 0 {
		c.err = fmt.Errorf("cell %s: invalid schedule: %v", c.name, verrs[0])
	}
	p.validate.since(t)
	t = time.Now()
	ave, mx, wait, util := metrics.AVEbsld(res), metrics.MaxBsld(res), metrics.MeanWait(res), metrics.Utilization(res)
	metrics.MAE(res.Jobs)
	metrics.MeanELoss(res.Jobs)
	p.batch.since(t)
	c.digest = cellDigest(c.name, ave, mx, wait, util, res.Corrections)
	return c, p
}

// traceStreamed replays one robustness cell the way the harness's
// streaming path runs it (sim.RunStream into a metrics.Collector),
// under probes.
func traceStreamed(in *gridInputs, i int) (cellOut, *probes) {
	wi, ci, ti := in.cell(i)
	w, tr := in.workloads[wi], in.triples[ti]
	cfg := tr.Config()
	cfg.Script = in.scripts[wi][ci]
	col := metrics.NewCollector()
	cfg.Sink = col
	p := wrap(&cfg)
	src := p.wrapSource(workload.FromWorkload(w), "workload")
	c := cellOut{name: in.cellName(i), policy: tr.Policy().Name(), jobs: len(w.Jobs)}
	res, err := sim.RunStream(w.Name, w.MaxProcs, src, cfg)
	if err != nil {
		c.err = err
		return c, p
	}
	c.perf = res.Perf
	c.digest = cellDigest(c.name, col.AVEbsld(), col.MaxBsld(), col.MeanWait(), col.Utilization(res.Makespan, res.MaxProcs), res.Corrections)
	return c, p
}

// runGrid measures a grid workload. Untraced, it repeats the harness
// run for about --seconds and checks every repetition's cells against
// the first. Traced, it runs the harness once (for the untraced wall,
// allocations and the campaign layer's per-cell counters) and then
// replays every cell directly under probes, checking each replayed
// cell's digest against the harness's.
func runGrid(ctx context.Context, e *env, in *gridInputs, untraced func(context.Context) []cellOut, traced func(int) (cellOut, *probes)) (*outcome, error) {
	out := newOutcome()
	var ref []cellOut
	var jobs int64
	var cellWalls []float64
	m0 := mallocs()
	score := func(cells []cellOut) {
		for i, c := range cells {
			out.attempted++
			ok := c.err == nil && (ref == nil || c.digest == ref[i].digest)
			if !ok {
				out.failed++
				if c.err != nil {
					e.logf("cell %s failed: %v", c.name, c.err)
				} else {
					e.logf("cell %s: digest differs between runs", c.name)
				}
				continue
			}
			jobs += int64(c.jobs)
			cellWalls = append(cellWalls, float64(c.perf.WallNanos)/1e6)
		}
		if ref == nil {
			ref = cells
		}
	}
	seconds := e.seconds
	if e.trace {
		// The traced run's untraced half: one harness run.
		seconds = 0
	}
	var peaks []float64
	walls, err := repeat(seconds, e.cal, func(int) error {
		peak, err := e.peakOf(func() error {
			score(untraced(ctx))
			return ctx.Err()
		})
		peaks = append(peaks, peak)
		return err
	})
	if err != nil {
		return nil, err
	}
	reps := len(walls)
	wall := sumDur(walls)
	allocs := mallocs() - m0
	e.logf("harness: %d repetition(s) %v, %.3fs, %d jobs", reps, walls, wall.Seconds(), jobs)
	out.digest = gridDigest(ref)

	if !e.trace {
		e.markPeak(out, peaks)
		if jobs == 0 {
			return nil, errNoWork
		}
		out.e2e["sim_jobs_per_s"] = float64(jobs) / wall.Seconds()
		out.e2e["op_p50_ms"] = quantile(cellWalls, 0.5)
		return out, nil
	}

	// Campaign layer, from the harness run's own per-cell counters.
	out.layer["campaign.cells"] = float64(len(ref))
	out.layer["campaign.cell_ms_p50"] = quantile(cellWalls, 0.5)
	out.layer["campaign.cell_ms_p90"] = quantile(cellWalls, 0.9)
	out.layer["campaign.cell_ms_p99"] = quantile(cellWalls, 0.99)
	for _, pol := range []string{"EASY", "EASY-SJBF", "Conservative"} {
		var ws []float64
		for _, c := range ref {
			if c.policy == pol && c.err == nil {
				ws = append(ws, float64(c.perf.WallNanos)/1e6)
			}
		}
		out.layer["campaign.cell_ms_p50."+pol] = quantile(ws, 0.5)
		out.layer["campaign.cell_ms_p99."+pol] = quantile(ws, 0.99)
	}
	out.layer["campaign.busy_frac"] = sumFloats(cellWalls) / (wall.Seconds() * 1e3 * float64(e.procs))
	if jobs > 0 {
		out.layer["sim.allocs_per_job"] = float64(allocs) / float64(jobs)
	}

	// The traced replay: same cells, same pools, same parallelism,
	// every layer interface wrapped.
	led := newLedger()
	cells := make([]cellOut, in.cells())
	var cellNs int64
	var mu sync.Mutex
	t0 := time.Now()
	for lo := 0; lo < len(cells); lo += in.pool() {
		runParallel(e.procs, in.pool(), func(k int) {
			i := lo + k
			t := time.Now()
			c, p := traced(i)
			d := time.Since(t)
			cells[i] = c
			p.fold(led)
			led.add(key{"sim", "validate", ""}, &p.validate)
			led.add(key{"metrics", "batch", ""}, &p.batch)
			mu.Lock()
			cellNs += int64(d)
			mu.Unlock()
			e.spans.add(fmt.Sprintf("cell/%d", i), "run", c.name, t, map[string]any{
				"events": c.perf.Events, "picks": c.perf.PickCalls, "policy": c.policy,
			})
		})
	}
	tracedWall := time.Since(t0)
	e.spans.add("run", "", "traced replay", t0, map[string]any{"cells": len(cells)})
	var events, picks int64
	for i, c := range cells {
		out.attempted++
		if c.err != nil || c.digest != ref[i].digest {
			out.failed++
			e.logf("cell %s: traced replay differs from the harness run (%v)", c.name, c.err)
			continue
		}
		events += c.perf.Events
		picks += c.perf.PickCalls
	}
	fillLayers(out, led, float64(cellNs)/1e6, events, picks)
	out.layer["trace.overhead_frac"] = tracedWall.Seconds()/(wall.Seconds()/float64(reps)) - 1
	e.logf("traced replay: %.3fs wall, %.3fs in cells, %.3fs in layers, self %.1f%%",
		tracedWall.Seconds(), float64(cellNs)/1e9, led.busyMs()/1e3, 100*out.layer["sim.self_frac"])
	return out, nil
}

// fillLayers derives the per-layer metrics from a traced run's ledger
// and checks the accounting: the wrapped Pick calls must be exactly the
// engine's own count, and the layers must fit inside the traced wall.
func fillLayers(out *outcome, led *ledger, wallMs float64, events, picks int64) {
	pick := led.layer("sched", "pick")
	out.layer["sched.pick_calls"] = float64(pick.n)
	out.layer["sched.pick_ms"] = pick.ms()
	for _, pol := range []string{"EASY", "EASY-SJBF", "Conservative"} {
		out.layer["sched.pick_ms."+pol] = led.site("sched", "pick", pol).ms()
	}
	if pick.h != nil {
		out.layer["sched.pick_ns_p50"] = pick.h.quantile(0.5)
		out.layer["sched.pick_ns_p99"] = pick.h.quantile(0.99)
	}
	out.layer["sched.hook_ms"] = led.layer("sched", "hook").ms()
	if pick.n > 0 {
		out.layer["sched.start_ratio"] = float64(led.count["sched.starts"]) / float64(pick.n)
	}
	out.layer["sched.capacity_changes"] = float64(led.count["sched.capacity_changes"])

	pred := led.layer("predict", "predict")
	out.layer["predict.calls"] = float64(pred.n)
	out.layer["predict.predict_ms"] = pred.ms()
	out.layer["predict.learn_ms.ML"] = led.site("predict", "learn", "ML").ms()
	out.layer["predict.learn_ms.AVE2"] = led.site("predict", "learn", "AVE2").ms()
	learned := led.site("predict", "learn", "ML")
	learned.merge(led.site("predict", "learn", "AVE2"))
	if learned.h != nil {
		out.layer["predict.learn_ns_p99"] = learned.h.quantile(0.99)
	}
	corr := led.layer("correct", "")
	out.layer["correct.calls"] = float64(corr.n)
	out.layer["correct.ms"] = corr.ms()

	obs := led.layer("metrics", "observe")
	out.layer["metrics.observe_calls"] = float64(obs.n)
	out.layer["metrics.observe_ms"] = obs.ms()
	out.layer["metrics.batch_ms"] = led.layer("metrics", "batch").ms()
	out.layer["swf.next_ms"] = led.layer("swf", "next").ms()
	out.layer["workload.next_ms"] = led.layer("workload", "next").ms()

	layersMs := led.busyMs()
	out.layer["sim.events"] = float64(events)
	out.layer["sim.validate_ms"] = led.layer("sim", "validate").ms()
	out.layer["sim.self_ms"] = wallMs - layersMs
	if wallMs > 0 {
		out.layer["sim.self_frac"] = (wallMs - layersMs) / wallMs
	}
	out.layer["trace.wall_ms"] = wallMs
	out.layer["trace.layers_ms"] = layersMs
	// The accounting checks.
	out.check(pick.n == picks)
	out.check(layersMs <= wallMs)
}

// gridDigest fingerprints every cell's outputs in grid order.
func gridDigest(cells []cellOut) string {
	lines := make([]string, len(cells))
	for i, c := range cells {
		lines[i] = c.digest
	}
	return digestOf(lines)
}

// runParallel calls fn(i) for i in [0, n) on the given number of
// workers, handing out indices in order.
func runParallel(workers, n int, fn func(int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

func sumFloats(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
