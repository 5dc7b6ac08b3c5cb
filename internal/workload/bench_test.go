package workload

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"repro/internal/swf"
)

// benchPulls pulls b.N records, one per op, from sources that open
// makes afresh each time one runs dry (outside the timer), and reports
// the rate in jobs/s.
func benchPulls(b *testing.B, open func() (Source, error)) {
	b.ReportAllocs()
	var src Source
	dst := new(swf.Job)
	for i := 0; i < b.N; i++ {
		if src == nil {
			b.StopTimer()
			var err error
			if src, err = open(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if err := Pull(src, dst); err == io.EOF {
			src = nil
			i--
		} else if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkGenSource is the streaming synthetic generator's cost per
// job: the huge-synthetic preset, the one `simsched -preset
// huge-synthetic -stream` replays, cut to 100,000 jobs.
func BenchmarkGenSource(b *testing.B) {
	cfg, err := Scaled("huge-synthetic", 100_000)
	if err != nil {
		b.Fatal(err)
	}
	benchPulls(b, func() (Source, error) { return NewGenSource(cfg) })
}

// BenchmarkMultiSource is the multi-client generator's cost per job:
// three clients with different arrival processes, merged.
func BenchmarkMultiSource(b *testing.B) {
	cfg := streamCfg(100_000)
	clients := []Client{
		{Name: "batch", Fraction: 2, Arrival: "profile"},
		{Name: "bursty", Fraction: 1, Arrival: "gamma"},
		{Name: "steady", Fraction: 1, Arrival: "poisson"},
	}
	benchPulls(b, func() (Source, error) { return NewMultiSource(cfg, clients) })
}

// BenchmarkScanSource is the SWF intake as `simsched -swf FILE -stream`
// composes it, per byte: the 10k-job file of swf.BenchmarkScanner,
// read ahead by ScanSource, through StatusSource (keep) and
// CleanSource, pulled as the engine pulls.
func BenchmarkScanSource(b *testing.B) {
	var buf bytes.Buffer
	w := swf.NewWriter(&buf)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		j := swf.Job{JobNumber: int64(i + 1), SubmitTime: int64(30 * i), WaitTime: -1, RunTime: r.Int63n(86400),
			AllocatedProcs: 1 + r.Int63n(256), AvgCPUTime: -1, UsedMemory: -1, RequestedProcs: 1 + r.Int63n(256),
			RequestedTime: r.Int63n(172800), RequestedMemory: -1, Status: 1, UserID: r.Int63n(300),
			GroupID: r.Int63n(20), Executable: r.Int63n(900), Queue: 1, Partition: 1, PrecedingJob: -1, ThinkTime: -1}
		if err := w.WriteJob(&j); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	dst := new(swf.Job)
	for i := 0; i < b.N; i++ {
		st, err := NewStatusSource(NewScanSource(swf.NewScanner(bytes.NewReader(data))), swf.StatusKeep)
		if err != nil {
			b.Fatal(err)
		}
		src := NewCleanSource(st, 256)
		for {
			if err := Pull(src, dst); err != nil {
				if err != io.EOF {
					b.Fatal(err)
				}
				break
			}
		}
	}
}
