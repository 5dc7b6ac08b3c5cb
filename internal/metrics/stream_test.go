package metrics

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestCollectorMatchesBatchMetrics runs one simulation with a collector
// attached and holds every streaming accumulator to the batch function
// over the retained result: integer-summed metrics exactly, float-summed
// ones to summation-order tolerance.
func TestCollectorMatchesBatchMetrics(t *testing.T) {
	cfg, err := workload.Scaled("KTH-SP2", 800)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []core.Triple{core.EASY(), core.EASYPlusPlus()} {
		c := NewCollector()
		sc := tr.Config()
		sc.Sink = c
		res, err := sim.Run(w, sc)
		if err != nil {
			t.Fatal(err)
		}

		finished := 0
		for _, j := range res.Jobs {
			if j.Finished {
				finished++
			}
		}
		if c.Finished() != finished || res.Finished != finished {
			t.Fatalf("%s: collector observed %d jobs (result says %d), want %d",
				tr.Name(), c.Finished(), res.Finished, finished)
		}

		exact := func(name string, got, want float64) {
			if got != want {
				t.Errorf("%s: %s = %v, batch %v (must be exact)", tr.Name(), name, got, want)
			}
		}
		near := func(name string, got, want float64) {
			if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
				t.Errorf("%s: %s = %v, batch %v", tr.Name(), name, got, want)
			}
		}
		exact("MeanWait", c.MeanWait(), MeanWait(res))
		exact("Utilization", c.Utilization(res.Makespan, res.MaxProcs), Utilization(res))
		exact("MaxBsld", c.MaxBsld(), MaxBsld(res))
		near("AVEbsld", c.AVEbsld(), AVEbsld(res))
		near("MAE", c.MAE(), MAE(res.Jobs))
		near("MeanELoss", c.MeanELoss(), MeanELoss(res.Jobs))
	}
}

// TestCollectorEmpty pins the zero-job behavior of every accessor.
func TestCollectorEmpty(t *testing.T) {
	c := NewCollector()
	if c.Finished() != 0 || c.AVEbsld() != 0 || c.MaxBsld() != 0 || c.MeanWait() != 0 ||
		c.MAE() != 0 || c.MeanELoss() != 0 || c.Utilization(100, 10) != 0 {
		t.Fatal("empty collector must report zeros")
	}
	if got := (WaitStats{}); c.WaitStats() != got {
		t.Fatalf("empty WaitStats = %+v", c.WaitStats())
	}
	if c.WaitSketch().Count() != 0 || c.BsldSketch().Count() != 0 {
		t.Fatal("empty sketches must be empty")
	}
}

// TestCollectorSketchTracksDistribution sanity-checks the sketch-backed
// distribution views against the exact batch percentiles.
func TestCollectorSketchTracksDistribution(t *testing.T) {
	cfg, err := workload.Scaled("CTC-SP2", 800)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollector()
	sc := core.EASY().Config()
	sc.Sink = c
	res, err := sim.Run(w, sc)
	if err != nil {
		t.Fatal(err)
	}
	exactStats := ComputeWaitStats(res)
	got := c.WaitStats()
	if got.Mean != exactStats.Mean || got.Max != exactStats.Max {
		t.Fatalf("wait mean/max: streaming %v/%v, exact %v/%v", got.Mean, got.Max, exactStats.Mean, exactStats.Max)
	}
	// Percentiles are approximate; at 800 samples the sketch has not
	// compacted much, so they should sit close to exact.
	for _, pair := range [][2]int64{{got.P50, exactStats.P50}, {got.P95, exactStats.P95}} {
		lo, hi := float64(pair[1])*0.8-1, float64(pair[1])*1.2+1
		if float64(pair[0]) < lo || float64(pair[0]) > hi {
			t.Fatalf("sketch percentile %d too far from exact %d", pair[0], pair[1])
		}
	}
	if n := c.BsldSketch().Count(); n != int64(c.Finished()) {
		t.Fatalf("bsld sketch saw %d samples, want %d", n, c.Finished())
	}
}

// BenchmarkCollectorObserve times the streaming sink's per-job cost,
// Collector.Observe with its two Sketch.Add calls, on one collector as
// a streamed run uses it. The finished jobs' waits run log-uniformly
// from 0 to about 11 days and their runtimes from 1 s to about a day,
// so bounded slowdowns run from 1 to about 10^5 and both sketches see
// values across their whole range while they compact.
func BenchmarkCollectorObserve(b *testing.B) {
	r := rand.New(rand.NewPCG(1, 0x5eed))
	logUniform := func(hi float64) int64 { return int64(math.Exp(r.Float64() * math.Log(hi))) }
	jobs := make([]*job.Job, 4096)
	for i := range jobs {
		runtime := logUniform(1e5)
		jobs[i] = &job.Job{
			Procs: 1 + r.Int64N(128), Runtime: runtime, SubmitPrediction: 1 + r.Int64N(2*runtime),
			Started: true, Start: logUniform(1e6) - 1,
		}
	}
	c := NewCollector()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Observe(jobs[i%len(jobs)])
	}
}
