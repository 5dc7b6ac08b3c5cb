package trace

import (
	"testing"

	"repro/internal/swf"
)

func sampleTrace() *swf.Trace {
	return &swf.Trace{
		Header: swf.Header{MaxProcs: 100},
		Jobs: []swf.Job{
			{JobNumber: 1, SubmitTime: 0, RunTime: 100, RequestedProcs: 50, RequestedTime: 200, UserID: 1},
			{JobNumber: 2, SubmitTime: 10, RunTime: 50, RequestedProcs: 100, RequestedTime: 100, UserID: 2},
			{JobNumber: 3, SubmitTime: 20, RunTime: 200, RequestedProcs: 25, RequestedTime: 400, UserID: 1},
		},
	}
}

func TestFromSWF(t *testing.T) {
	w, err := FromSWF("test", sampleTrace(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.MaxProcs != 100 {
		t.Errorf("MaxProcs = %d, want 100 from header", w.MaxProcs)
	}
	if len(w.Jobs) != 3 {
		t.Errorf("got %d jobs", len(w.Jobs))
	}
}

func TestFromSWFOverride(t *testing.T) {
	w, err := FromSWF("test", sampleTrace(), 200)
	if err != nil {
		t.Fatal(err)
	}
	if w.MaxProcs != 200 {
		t.Errorf("MaxProcs = %d, want override 200", w.MaxProcs)
	}
}

func TestFromSWFNoMachineSize(t *testing.T) {
	tr := sampleTrace()
	tr.Header.MaxProcs = 0
	if _, err := FromSWF("test", tr, 0); err == nil {
		t.Fatal("expected error when machine size unknown")
	}
}

func TestDurationAndWork(t *testing.T) {
	w, _ := FromSWF("test", sampleTrace(), 0)
	// Last completion lower bound: job3 submits at 20, runs 200 -> 220.
	if d := w.Duration(); d != 220 {
		t.Errorf("Duration = %d, want 220", d)
	}
	want := int64(100*50 + 50*100 + 200*25)
	if got := w.TotalWork(); got != want {
		t.Errorf("TotalWork = %d, want %d", got, want)
	}
}

func TestOfferedLoad(t *testing.T) {
	w, _ := FromSWF("test", sampleTrace(), 0)
	load := w.OfferedLoad()
	want := float64(15000) / (220.0 * 100.0)
	if diff := load - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("OfferedLoad = %v, want %v", load, want)
	}
}

func TestUsers(t *testing.T) {
	w, _ := FromSWF("test", sampleTrace(), 0)
	users := w.Users()
	if len(users) != 2 || users[0] != 1 || users[1] != 2 {
		t.Errorf("Users = %v, want [1 2]", users)
	}
}

func TestComputeStats(t *testing.T) {
	w, _ := FromSWF("test", sampleTrace(), 0)
	s := ComputeStats(w)
	if s.Jobs != 3 || s.Users != 2 {
		t.Errorf("stats jobs/users = %d/%d", s.Jobs, s.Users)
	}
	if s.MedianRunTime != 100 {
		t.Errorf("MedianRunTime = %d, want 100", s.MedianRunTime)
	}
	if s.MaxProcsPerJob != 100 {
		t.Errorf("MaxProcsPerJob = %d, want 100", s.MaxProcsPerJob)
	}
	if s.MeanOverestim < 2.0 || s.MeanOverestim > 2.1 {
		// ratios: 2, 2, 2 -> mean 2
		t.Errorf("MeanOverestim = %v, want 2", s.MeanOverestim)
	}
}

func TestSlice(t *testing.T) {
	w, _ := FromSWF("test", sampleTrace(), 0)
	s := w.Slice(2)
	if len(s.Jobs) != 2 {
		t.Errorf("Slice(2) has %d jobs", len(s.Jobs))
	}
	s.Jobs[0].RunTime = 999
	if w.Jobs[0].RunTime == 999 {
		t.Error("Slice should copy, not alias")
	}
	if got := w.Slice(0); len(got.Jobs) != 3 {
		t.Errorf("Slice(0) should keep all jobs, got %d", len(got.Jobs))
	}
	if got := w.Slice(100); len(got.Jobs) != 3 {
		t.Errorf("Slice(100) should keep all jobs, got %d", len(got.Jobs))
	}
}

func TestValidateCleanWorkload(t *testing.T) {
	w, _ := FromSWF("test", sampleTrace(), 0)
	if issues := w.Validate(); len(issues) != 0 {
		t.Errorf("clean workload has issues: %v", issues)
	}
}
