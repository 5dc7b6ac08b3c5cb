package workload

import (
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/swf"
	"repro/internal/trace"
)

func TestSliceSourceDrains(t *testing.T) {
	jobs := []swf.Job{{JobNumber: 1}, {JobNumber: 2}}
	got, err := Collect(NewSliceSource(jobs))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, jobs) {
		t.Fatalf("collected %v, want %v", got, jobs)
	}
	src := NewSliceSource(jobs)
	for range jobs {
		if _, err := src.NextJob(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := src.NextJob(); err != io.EOF {
		t.Fatalf("exhausted source returned %v, want io.EOF", err)
	}
}

// TestCleanSourceMatchesClean holds the streaming cleaner to swf.Clean's
// per-job rules on a trace that exercises every rule (already sorted, so
// Clean's sort is a no-op and outputs are comparable).
func TestCleanSourceMatchesClean(t *testing.T) {
	jobs := []swf.Job{
		{JobNumber: 1, SubmitTime: 0, RunTime: 100, RequestedProcs: 4, RequestedTime: 50}, // runtime capped at request
		{JobNumber: 2, SubmitTime: 1, RunTime: 0, RequestedProcs: 1, RequestedTime: 10},   // dropped: no runtime
		{JobNumber: 3, SubmitTime: 2, RunTime: 10, RequestedProcs: 0},                     // dropped: no procs
		{JobNumber: 4, SubmitTime: 3, RunTime: 10, RequestedProcs: 99, RequestedTime: 20}, // dropped: wider than machine
		{JobNumber: 5, SubmitTime: 4, RunTime: 10, RequestedProcs: 2},                     // request defaults to runtime
		{JobNumber: 6, SubmitTime: -1, RunTime: 10, RequestedProcs: 1, RequestedTime: 20}, // dropped: negative submit
		{JobNumber: 7, SubmitTime: 5, RunTime: 10, RequestedProcs: 1, RequestedTime: 20},  // kept as-is
	}
	tr := &swf.Trace{Jobs: jobs}
	want := swf.Clean(tr, 16).Jobs

	got, err := Collect(NewCleanSource(NewSliceSource(jobs), 16))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streaming clean differs:\n%v\nvs swf.Clean:\n%v", got, want)
	}
}

// TestStatusSourceMatchesApplyStatus checks every streamable mode against
// swf.ApplyStatus and that replay is rejected.
func TestStatusSourceMatchesApplyStatus(t *testing.T) {
	jobs := []swf.Job{
		{JobNumber: 1, RunTime: 10, RequestedProcs: 1, Status: swf.StatusCompleted},
		{JobNumber: 2, RunTime: 5, RequestedProcs: 1, Status: swf.StatusCancelled},
		{JobNumber: 3, RunTime: 0, RequestedProcs: 1, Status: swf.StatusCancelled, RequestedTime: 30},
		{JobNumber: 4, RunTime: 7, RequestedProcs: 1, Status: swf.StatusFailed},
	}
	for _, mode := range []swf.StatusMode{swf.StatusKeep, swf.StatusSkip, swf.StatusTruncate} {
		want := swf.ApplyStatus(&swf.Trace{Jobs: jobs}, mode).Jobs
		src, err := NewStatusSource(NewSliceSource(jobs), mode)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Collect(src)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("mode %v: streaming %v != ApplyStatus %v", mode, got, want)
		}
	}
	if _, err := NewStatusSource(NewSliceSource(jobs), swf.StatusReplay); err == nil {
		t.Fatal("replay mode should be rejected on the streaming path")
	}
}

// TestCleanSourceSortsSubmitTies pins the tie semantics: several jobs
// sharing one submit instant but written out of job-number order must
// come out in swf.Clean's (SubmitTime, JobNumber) order, so the
// streamed and preloaded replays of such a log schedule identically.
func TestCleanSourceSortsSubmitTies(t *testing.T) {
	jobs := []swf.Job{
		{JobNumber: 3, SubmitTime: 0, RunTime: 10, RequestedProcs: 1, RequestedTime: 20},
		{JobNumber: 1, SubmitTime: 0, RunTime: 10, RequestedProcs: 1, RequestedTime: 20},
		{JobNumber: 2, SubmitTime: 0, RunTime: 10, RequestedProcs: 1, RequestedTime: 20},
		{JobNumber: 6, SubmitTime: 5, RunTime: 10, RequestedProcs: 1, RequestedTime: 20},
		{JobNumber: 5, SubmitTime: 5, RunTime: 0, RequestedProcs: 1, RequestedTime: 20}, // dropped mid-tie
		{JobNumber: 4, SubmitTime: 5, RunTime: 10, RequestedProcs: 1, RequestedTime: 20},
		{JobNumber: 7, SubmitTime: 9, RunTime: 10, RequestedProcs: 1, RequestedTime: 20},
	}
	want := swf.Clean(&swf.Trace{Jobs: jobs}, 16).Jobs
	got, err := Collect(NewCleanSource(NewSliceSource(jobs), 16))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tie order differs from swf.Clean:\n stream: %v\n clean:  %v", ids(got), ids(want))
	}
}

// tieSource is an endless log of two jobs per submit instant, each pair
// written out of job-number order.
type tieSource struct{ n int64 }

func (s *tieSource) NextJob() (swf.Job, error) {
	s.n++
	k := (s.n + 1) / 2
	return swf.Job{JobNumber: 2*k - 1 + s.n%2, SubmitTime: k, RunTime: 10, RequestedProcs: 1, RequestedTime: 20}, nil
}

// TestCleanSourceSteadyStateAllocatesNothing: once its instant buffer
// has grown, the cleaner holds the next instant's first job by value
// and sorts ties without reflection, so streaming allocates nothing.
func TestCleanSourceSteadyStateAllocatesNothing(t *testing.T) {
	c := NewCleanSource(&tieSource{}, 16)
	var last int64
	next := func() {
		j, err := c.NextJob()
		if err != nil {
			t.Fatal(err)
		}
		if j.JobNumber != last+1 {
			t.Fatalf("job %d after %d: ties not sorted", j.JobNumber, last)
		}
		last = j.JobNumber
	}
	for i := 0; i < 10; i++ {
		next()
	}
	if avg := testing.AllocsPerRun(1000, next); avg != 0 {
		t.Fatalf("%v allocations per job in steady state, want 0", avg)
	}
}

// TestCleanSourceErrorIsFinal: once the source below fails, the
// cleaner returns that error on every call and never the jobs it had
// buffered before it.
func TestCleanSourceErrorIsFinal(t *testing.T) {
	const text = "; MaxProcs: 8\n" +
		"1 10 -1 5 1 -1 -1 1 9 -1 1 1 1 1 1 1 -1 -1\n" +
		"2 10 -1 5 1 -1 -1 1 9 -1 1 1 1 1 1 1 -1 -1\n" +
		"bad line\n"
	src := NewCleanSource(NewScanSource(swf.NewScanner(strings.NewReader(text))), 8)
	for i := 0; i < 4; i++ {
		j, err := src.NextJob()
		if err == nil || !strings.HasPrefix(err.Error(), "swf: line 4:") {
			t.Fatalf("call %d: job %d, error %v; want the line-4 error", i+1, j.JobNumber, err)
		}
	}
}

func ids(jobs []swf.Job) []int64 {
	out := make([]int64, len(jobs))
	for i := range jobs {
		out[i] = jobs[i].JobNumber
	}
	return out
}

func TestPrependAndFromWorkload(t *testing.T) {
	tail := []swf.Job{{JobNumber: 3}, {JobNumber: 4}}
	src := Prepend([]swf.Job{{JobNumber: 1}, {JobNumber: 2}}, NewSliceSource(tail))
	got, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range got {
		if j.JobNumber != int64(i+1) {
			t.Fatalf("prepend order wrong: %v", got)
		}
	}
	w := &trace.Workload{Name: "w", MaxProcs: 8, Jobs: tail}
	got, err = Collect(FromWorkload(w))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tail) {
		t.Fatalf("FromWorkload yielded %v, want %v", got, tail)
	}
}

// TestScanSourceStreamsFile pulls jobs straight from SWF text.
func TestScanSourceStreamsFile(t *testing.T) {
	const text = "; MaxProcs: 8\n1 0 -1 10 2 -1 -1 2 20 -1 1 1 1 1 1 1 -1 -1\n2 3 -1 5 1 -1 -1 1 9 -1 1 1 1 1 1 1 -1 -1\n"
	sc := swf.NewScanner(strings.NewReader(text))
	got, err := Collect(NewScanSource(sc))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].JobNumber != 1 || got[1].JobNumber != 2 {
		t.Fatalf("unexpected jobs: %v", got)
	}
	if sc.Header().MaxProcs != 8 {
		t.Fatalf("header MaxProcs = %d, want 8", sc.Header().MaxProcs)
	}
}
