package job

import (
	"testing"
	"unsafe"

	"repro/internal/swf"
)

func rec() *swf.Job {
	return &swf.Job{
		JobNumber:      7,
		SubmitTime:     100,
		RunTime:        50,
		RequestedProcs: 4,
		AllocatedProcs: 3,
		RequestedTime:  200,
		UserID:         11,
	}
}

func TestFromSWF(t *testing.T) {
	r := rec()
	j := FromSWF(r)
	if j.ID != 7 || j.User != 11 || j.Submit != 100 || j.Runtime != 50 {
		t.Fatalf("identity fields wrong: %+v", j)
	}
	if j.Procs != 4 {
		t.Fatalf("Procs = %d, want the requested count 4", j.Procs)
	}
	if j.Request != 200 {
		t.Fatalf("Request = %d, want 200", j.Request)
	}
	if j.Record != r {
		t.Fatal("Record must point at the source SWF record")
	}
	if j.Started || j.Finished || j.Canceled {
		t.Fatal("fresh job must carry no schedule state")
	}

	// Fallbacks: allocated procs when no request, runtime as the
	// clairvoyant request when the log has no estimates.
	r2 := rec()
	r2.RequestedProcs = 0
	r2.RequestedTime = 0
	j2 := FromSWF(r2)
	if j2.Procs != 3 {
		t.Fatalf("Procs fallback = %d, want allocated 3", j2.Procs)
	}
	if j2.Request != 50 {
		t.Fatalf("Request fallback = %d, want runtime 50", j2.Request)
	}
}

func TestWait(t *testing.T) {
	j := FromSWF(rec())
	if w := j.Wait(); w != -1 {
		t.Fatalf("Wait before start = %d, want -1", w)
	}
	j.Started = true
	j.Start = 130
	if w := j.Wait(); w != 30 {
		t.Fatalf("Wait = %d, want 30", w)
	}
}

func TestPredictedEndAndArea(t *testing.T) {
	j := FromSWF(rec())
	j.Started = true
	j.Start = 120
	j.Prediction = 40
	if e := j.PredictedEnd(); e != 160 {
		t.Fatalf("PredictedEnd = %d, want 160", e)
	}
	if a := j.Area(); a != 50*4 {
		t.Fatalf("Area = %d, want %d", a, 50*4)
	}
}

func TestClampPrediction(t *testing.T) {
	j := FromSWF(rec()) // Request = 200
	cases := []struct{ in, want int64 }{
		{-5, 1}, // below one second is meaningless
		{0, 1},  // zero too
		{1, 1},  // lower edge passes
		{150, 150},
		{200, 200}, // upper edge passes
		{201, 200}, // the system kills at the request
		{1 << 40, 200},
	}
	for _, c := range cases {
		if got := j.ClampPrediction(c.in); got != c.want {
			t.Errorf("ClampPrediction(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestStateTransitions walks the canonical lifecycle and the two cancel
// variants, checking the invariants the engine relies on.
func TestStateTransitions(t *testing.T) {
	// Normal life: submit -> start -> finish.
	j := FromSWF(rec())
	j.Prediction = j.ClampPrediction(25)
	j.Started = true
	j.Start = 150
	if j.Wait() != 50 || j.PredictedEnd() != 175 {
		t.Fatalf("started state wrong: wait %d, predicted end %d", j.Wait(), j.PredictedEnd())
	}
	// A correction extends the prediction but never past the request.
	j.Prediction = j.ClampPrediction(500)
	j.Corrections++
	if j.Prediction != j.Request || j.Corrections != 1 {
		t.Fatalf("correction state wrong: %+v", j)
	}
	j.Finished = true
	j.End = 200
	if !j.Started || !j.Finished || j.Canceled {
		t.Fatalf("finished state wrong: %+v", j)
	}

	// Canceled before running: Started stays false.
	q := FromSWF(rec())
	q.Canceled = true
	if q.Started || q.Finished {
		t.Fatalf("queue-canceled job must not carry a schedule: %+v", q)
	}

	// Killed while running: Finished set, runtime truncated to the time
	// actually executed.
	k := FromSWF(rec())
	k.Started = true
	k.Start = 100
	k.Canceled = true
	k.Finished = true
	k.End = 120
	k.Runtime = k.End - k.Start
	if k.Runtime != 20 || k.Wait() != 0 {
		t.Fatalf("killed job state wrong: %+v", k)
	}
}

// TestJobIs128Bytes: the engine's queues, the machine's slot table and
// the stream arena all hold jobs by the million; keep a Job in two cache
// lines.
func TestJobIs128Bytes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout is pinned on 64-bit targets")
	}
	if got := unsafe.Sizeof(Job{}); got != 128 {
		t.Fatalf("unsafe.Sizeof(Job{}) = %d, want 128", got)
	}
}
