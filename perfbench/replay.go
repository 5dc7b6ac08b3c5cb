package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/swf"
	"repro/internal/workload"
)

// writeHugeTrace streams the huge-synthetic preset (rescaled to jobs
// when non-zero) straight into an SWF file — what
// `gentrace -preset huge-synthetic -stream -o FILE` does. It returns
// the time spent inside the generator.
//
// The trace keeps the preset's own seed whatever the run's seed: the
// preset is calibrated for it, and with derived seeds the same replay
// took from 20 s to 114 s (peak heap 4 to 131 MiB) as queues blew up.
func writeHugeTrace(path string, jobs int) (time.Duration, error) {
	cfg, err := workload.Preset("huge-synthetic")
	if jobs > 0 {
		cfg, err = workload.Scaled("huge-synthetic", jobs)
	}
	if err != nil {
		return 0, err
	}
	g, err := workload.NewGenSource(cfg)
	if err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	w := swf.NewWriter(f)
	h := g.Header()
	if err := w.WriteHeader(&h); err != nil {
		return 0, err
	}
	src := &sourceProbe{inner: g}
	for {
		j, err := src.NextJob()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		if err := w.WriteJob(&j); err != nil {
			return 0, err
		}
	}
	if err := w.Flush(); err != nil {
		return 0, err
	}
	return time.Duration(src.st.ns), f.Close()
}

// countingReader counts the bytes the SWF scanner pulls.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// replayOut is one replay's outputs. wall is the engine's wall time
// less the calibration bursts run within it.
type replayOut struct {
	digest string
	jobs   int
	bytes  int64
	perf   sim.Perf
	wall   time.Duration
}

// calEvery is how many jobs an untraced replay hands the engine between
// calibration bursts: 20 bursts per million-job replay.
const calEvery = 50_000

// calSource runs a calibration burst every calEvery jobs it hands out.
type calSource struct {
	workload.Source
	cal *calibrator
	n   int
}

func (s *calSource) NextJob() (swf.Job, error) {
	if s.n++; s.n%calEvery == 0 {
		s.cal.burst()
	}
	return s.Source.NextJob()
}

// replayOnce is `simsched -swf FILE -stream -triple easy++`: scan the
// SWF file, apply the keep status mode and the cleaner, stream it
// through EASY++ into a metrics.Collector. Traced, every layer interface
// runs under probes; untraced, cal's bursts run within the replay.
func replayOnce(path string, traced bool, cal *calibrator) (*replayOut, *probes, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	cr := &countingReader{r: f}
	sc := swf.NewScanner(cr)
	cfg := core.EASYPlusPlus().Config()
	col := metrics.NewCollector()
	cfg.Sink = col
	var p *probes
	if traced {
		p = wrap(&cfg)
	}
	var src workload.Source
	first, err := sc.Next()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	mp := sc.Header().Procs()
	src = workload.Prepend([]swf.Job{first}, workload.NewScanSource(sc))
	if src, err = workload.NewStatusSource(src, swf.StatusKeep); err != nil {
		return nil, nil, err
	}
	src = workload.NewCleanSource(src, mp)
	if traced {
		src = p.wrapSource(src, "swf")
	} else {
		src = &calSource{Source: src, cal: cal}
	}
	spent := cal.spent
	res, err := sim.RunStream(filepath.Base(path), mp, src, cfg)
	if err != nil {
		return nil, nil, err
	}
	d := digestOf([]string{fmt.Sprint(res.Finished, res.Corrections, res.Makespan, res.Canceled),
		cellDigest("replay", col.AVEbsld(), col.MaxBsld(), col.MeanWait(), col.Utilization(res.Makespan, res.MaxProcs), res.Corrections)})
	wall := time.Duration(res.Perf.WallNanos) - (cal.spent - spent)
	return &replayOut{digest: d, jobs: res.Finished, bytes: cr.n, perf: res.Perf, wall: wall}, p, nil
}

// runReplay is the bounded-memory real-log path: set-up writes a
// million-job huge-synthetic SWF trace with the streaming generator;
// the timed phase replays it single-threaded through SWF scan + clean,
// sim.RunStream, EASY++ and a metrics.Collector.
func runReplay(ctx context.Context, e *env) (*outcome, error) {
	path := filepath.Join(e.work, "huge-synthetic.swf")
	var genMs []float64
	_, setupS, err := setup(e, func() (struct{}, func(), error) {
		d, err := writeHugeTrace(path, e.scale.replayJobs)
		genMs = append(genMs, float64(d)/1e6)
		return struct{}{}, nil, err
	})
	if err != nil {
		return nil, err
	}
	defer os.Remove(path)
	out := newOutcome()
	out.e2e["setup_s"] = setupS
	out.layer["workload.generate_ms"] = median(genMs)
	out.goldenKey = "replay-1m"

	var ref *replayOut
	var jobs int64
	var opMs []float64
	score := func(r *replayOut, _ *probes, err error) error {
		if err != nil {
			return err
		}
		out.attempted++
		if ref != nil && r.digest != ref.digest {
			out.failed++
			e.logf("replay digest differs between runs")
		}
		if ref == nil {
			ref = r
		}
		jobs += int64(r.jobs)
		opMs = append(opMs, float64(r.wall)/1e6)
		return nil
	}
	seconds := e.seconds
	if e.trace {
		seconds = 0
	}
	m0 := mallocs()
	var peaks []float64
	walls, err := repeat(seconds, e.cal, func(int) error {
		peak, err := e.peakOf(func() error { return score(replayOnce(path, false, e.cal)) })
		peaks = append(peaks, peak)
		return err
	})
	if err != nil {
		return nil, err
	}
	allocs := mallocs() - m0
	wall := sumDur(walls)
	out.digest = ref.digest
	e.logf("replay: %d repetition(s) %v of %d jobs, %.3fs", len(walls), walls, ref.jobs, wall.Seconds())
	if !e.trace {
		e.markPeak(out, peaks)
		out.e2e["sim_jobs_per_s"] = float64(jobs) / wall.Seconds()
		// A run holds two or three replays. With two, the nearest-rank
		// median was the faster one, which spread by up to 31% over ten
		// runs, against at most 12% for the rate, which is their mean.
		out.e2e["op_p50_ms"] = median(opMs)
		return out, nil
	}

	out.layer["sim.allocs_per_job"] = float64(allocs) / float64(jobs)
	t := time.Now()
	r, p, err := replayOnce(path, true, e.cal)
	if err != nil {
		return nil, err
	}
	tracedWall := time.Since(t)
	e.spans.add("run", "", "traced replay", t, map[string]any{"jobs": r.jobs, "events": r.perf.Events, "picks": r.perf.PickCalls})
	out.check(r.digest == ref.digest)
	led := newLedger()
	p.fold(led)
	fillLayers(out, led, float64(tracedWall)/1e6, r.perf.Events, r.perf.PickCalls)
	if next := led.layer("swf", "next"); next.ns > 0 {
		out.layer["swf.mb_per_s"] = float64(r.bytes) / 1e6 / (float64(next.ns) / 1e9)
	}
	out.layer["trace.overhead_frac"] = tracedWall.Seconds()/walls[0].Seconds() - 1
	e.logf("traced replay: %.3fs wall, %.3fs in layers, self %.1f%%",
		tracedWall.Seconds(), led.busyMs()/1e3, 100*out.layer["sim.self_frac"])
	return out, nil
}
