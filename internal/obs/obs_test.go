package obs

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestValidateEvent(t *testing.T) {
	valid := []Event{
		{T: 0, Kind: KindSubmit, Job: 1, Procs: 4},
		{T: 5, Kind: KindRoute, Job: 1, Router: "round-robin", Cluster: "a", Eligible: []string{"a", "b"}},
		{T: 5, Kind: KindPick, Policy: "easy-sjbf", Picked: 3, QueueLen: 2, Nanos: 120},
		{T: 5, Kind: KindPick, Policy: "easy-sjbf"}, // decline
		{T: 6, Kind: KindStart, Job: 1, Wait: 1},
		{T: 9, Kind: KindFinish, Job: 1, Runtime: 3, Predicted: 4, PredErr: 1, Bsld: 1},
		{T: 9, Kind: KindFinish, Job: 2, Runtime: 0, Bsld: 2.5}, // killed at start instant
		{T: 4, Kind: KindCancel, Job: 7, Started: true},
		{T: 4, Kind: KindCapacity, Cluster: "a", Capacity: 96, Procs: 32},
		{T: 8, Kind: KindCorrect, Job: 1, Prediction: 100, Corrections: 2},
	}
	for i, ev := range valid {
		if err := ValidateEvent(&ev); err != nil {
			t.Errorf("valid[%d] (%s) rejected: %v", i, ev.Kind, err)
		}
	}

	invalid := []struct {
		ev   Event
		want string
	}{
		{Event{T: 0, Kind: "warp"}, "unknown event kind"},
		{Event{T: -1, Kind: KindSubmit, Job: 1, Procs: 1}, "negative instant"},
		{Event{T: 0, Kind: KindSubmit, Procs: 1}, "without a job id"},
		{Event{T: 0, Kind: KindSubmit, Job: 1}, "without a width"},
		{Event{T: 0, Kind: KindRoute, Job: 1, Cluster: "a"}, "without a router"},
		{Event{T: 0, Kind: KindRoute, Job: 1, Router: "rr"}, "without a destination"},
		{Event{T: 0, Kind: KindPick}, "without a policy"},
		{Event{T: 0, Kind: KindFinish, Job: 1, Runtime: -2, Bsld: 1}, "negative runtime"},
		{Event{T: 0, Kind: KindFinish, Job: 1, Runtime: 2, Bsld: 0.5}, "bounded slowdown"},
		{Event{T: 0, Kind: KindCancel}, "without a job id"},
	}
	for i, tc := range invalid {
		err := ValidateEvent(&tc.ev)
		if err == nil {
			t.Errorf("invalid[%d] (%s) accepted", i, tc.ev.Kind)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("invalid[%d]: error %q does not mention %q", i, err, tc.want)
		}
	}
}

func TestTaggedStampsContext(t *testing.T) {
	var col Collector
	tr := Tagged{Tracer: &col, Workload: "KTH-SP2", Triple: "easy++"}
	tr.Trace(&Event{T: 1, Kind: KindSubmit, Job: 1, Procs: 2})
	evs := col.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	if evs[0].Workload != "KTH-SP2" || evs[0].Triple != "easy++" {
		t.Fatalf("context not stamped: %+v", evs[0])
	}
}

// TestJSONLRoundTrip writes events concurrently through the JSONL
// tracer and reads them back strictly: every line must decode, validate
// and account for every write — the atomic-append property campaign
// grids rely on when concurrent cells share one trace file.
func TestJSONLRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	l, err := OpenJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tagged := Tagged{Tracer: l, Workload: "w", Triple: "t"}
			for i := 0; i < perWorker; i++ {
				tagged.Trace(&Event{
					T: int64(i), Kind: KindSubmit,
					Job: int64(w*perWorker + i + 1), Procs: 1,
				})
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	seen := make(map[int64]bool)
	err = ReadFile(path, func(line int, ev Event) error {
		if verr := ValidateEvent(&ev); verr != nil {
			t.Fatalf("line %d invalid: %v", line, verr)
		}
		if ev.Workload != "w" || ev.Triple != "t" {
			t.Fatalf("line %d lost its tag: %+v", line, ev)
		}
		if seen[ev.Job] {
			t.Fatalf("job %d traced twice", ev.Job)
		}
		seen[ev.Job] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != workers*perWorker {
		t.Fatalf("read back %d events, want %d", len(seen), workers*perWorker)
	}
}

func TestReadFileRejectsUnknownFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	lines := `{"t":1,"kind":"submit","job":1,"procs":2}
{"t":2,"kind":"submit","job":2,"procs":2,"bogus":true}
{"t":3,"kind":"submit","job":3,"procs":2}
`
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	err := ReadFile(path, func(int, Event) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("unknown field not rejected with position: %v", err)
	}
}

func TestReadFileToleratesTruncatedFinalLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	lines := `{"t":1,"kind":"submit","job":1,"procs":2}
{"t":2,"kind":"sub`
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	var n int
	if err := ReadFile(path, func(int, Event) error { n++; return nil }); err != nil {
		t.Fatalf("truncated final line not tolerated: %v", err)
	}
	if n != 1 {
		t.Fatalf("got %d events, want 1", n)
	}
}

func TestStageProfileSummaries(t *testing.T) {
	p := NewStageProfile()
	for i := 1; i <= 1000; i++ {
		p.Observe(StagePick, int64(i))
	}
	p.Observe(StagePop, 5)

	sum := p.Summaries()
	if len(sum) != 2 {
		t.Fatalf("got %d stages, want 2: %+v", len(sum), sum)
	}
	// Stage order, not observation order.
	if sum[0].Stage != StagePop.String() || sum[1].Stage != StagePick.String() {
		t.Fatalf("stage order wrong: %+v", sum)
	}
	pick := sum[1]
	if pick.Count != 1000 || pick.TotalNanos != 500500 || pick.MaxNanos != 1000 {
		t.Fatalf("exact counters wrong: %+v", pick)
	}
	if pick.P50 < 400 || pick.P50 > 600 {
		t.Fatalf("p50 %v implausible for uniform 1..1000", pick.P50)
	}
	if pick.P99 < pick.P50 || pick.P99 > 1000 {
		t.Fatalf("p99 %v out of order", pick.P99)
	}
}

func TestMergeStages(t *testing.T) {
	a := []StagePerf{{Stage: "pick", Count: 100, TotalNanos: 1000, P50: 10, P90: 20, P99: 30, MaxNanos: 50}}
	b := []StagePerf{
		{Stage: "pick", Count: 300, TotalNanos: 6000, P50: 20, P90: 40, P99: 60, MaxNanos: 90},
		{Stage: "eventq-pop", Count: 10, TotalNanos: 100, P50: 10, P90: 10, P99: 10, MaxNanos: 10},
	}
	m := MergeStages(a, b)
	if len(m) != 2 {
		t.Fatalf("got %d rows, want 2: %+v", len(m), m)
	}
	pick := m[0]
	if pick.Stage != "pick" || pick.Count != 400 || pick.TotalNanos != 7000 || pick.MaxNanos != 90 {
		t.Fatalf("pick merge wrong: %+v", pick)
	}
	// Count-weighted p50: (100*10 + 300*20) / 400 = 17.5.
	if pick.P50 != 17.5 {
		t.Fatalf("weighted p50 = %v, want 17.5", pick.P50)
	}
	if m[1].Stage != "eventq-pop" || m[1].Count != 10 {
		t.Fatalf("pop row wrong: %+v", m[1])
	}
}

func TestBsldFloorsAtOne(t *testing.T) {
	if got := Bsld(0, 10000); got != 1 {
		t.Fatalf("Bsld(0,10000) = %v, want 1", got)
	}
	if got := Bsld(90, 10); got != 10 {
		t.Fatalf("Bsld(90,10) = %v, want 10", got)
	}
	// Short jobs are bounded by tau, not their runtime.
	if got := Bsld(15, 5); got != 2 {
		t.Fatalf("Bsld(15,5) = %v, want 2", got)
	}
}

// TestAppendLineCoversEveryField fills every field of Event with a
// non-zero value and requires AppendLine's bytes to equal json.Marshal's,
// so a field added to Event without a line in AppendLine fails here.
func TestAppendLineCoversEveryField(t *testing.T) {
	var ev Event
	v := reflect.ValueOf(&ev).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i + 1))
		case reflect.String:
			f.SetString(v.Type().Field(i).Name)
		case reflect.Float64:
			f.SetFloat(1.25)
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Slice:
			f.Set(reflect.ValueOf([]string{"a", "b"}))
		default:
			t.Fatalf("field %s has kind %s, which this test cannot fill", v.Type().Field(i).Name, f.Kind())
		}
	}
	for _, e := range []Event{{}, ev} {
		want, err := json.Marshal(&e)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendLine([]byte("data: "), &e)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "data: "+string(want)+"\n" {
			t.Fatalf("AppendLine wrote\n%s\njson.Marshal wrote\n%s", got, want)
		}
	}
}

// TestAppendLineRejectsNonFiniteBsld: a NaN or infinite bounded
// slowdown has no JSON form, so AppendLine fails, as json.Marshal does,
// and leaves dst as it was.
func TestAppendLineRejectsNonFiniteBsld(t *testing.T) {
	for _, b := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		ev := Event{Kind: KindFinish, Job: 1, Bsld: b}
		got, err := AppendLine([]byte("x"), &ev)
		if err == nil || string(got) != "x" {
			t.Errorf("Bsld %v: got %q, %v; want the prefix alone and an error", b, got, err)
		}
	}
}

// BenchmarkAppendLine encodes one event of each kind the daemon
// streams, with the tags and values a live EASY++ run writes.
func BenchmarkAppendLine(b *testing.B) {
	const w, tr = "SDSC-SP2", "EASY-SJBF/AVE2/Incremental"
	events := []Event{
		{T: 86_412, Kind: KindSubmit, Workload: w, Triple: tr, Job: 31_337, Procs: 32, Request: 18_000, Prediction: 5_412},
		{T: 86_412, Kind: KindPick, Workload: w, Triple: tr, Policy: "EASY-SJBF", Picked: 31_337, QueueLen: 17, Free: 40, Eventual: 128, Nanos: 1_532},
		{T: 86_412, Kind: KindStart, Workload: w, Triple: tr, Job: 31_337, Procs: 32, Wait: 2_318},
		{T: 90_104, Kind: KindFinish, Workload: w, Triple: tr, Job: 31_337, Runtime: 3_692, Predicted: 5_412, PredErr: 1_720, Wait: 2_318, Bsld: 1.6278439869989165, Corrections: 1},
		{T: 91_824, Kind: KindCorrect, Workload: w, Triple: tr, Job: 31_290, Prediction: 7_200, Corrections: 2},
	}
	for _, ev := range events {
		b.Run(ev.Kind, func(b *testing.B) {
			b.ReportAllocs()
			var buf []byte
			for b.Loop() {
				var err error
				if buf, err = AppendLine(buf[:0], &ev); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
