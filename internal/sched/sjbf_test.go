package sched

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/job"
	"repro/internal/rng"
)

// flatFirst is the from-scratch form of sjbfIndex.first over a flat
// slice in predLess order: the jobs predicted to complete within cutoff
// form a prefix, where the first job no wider than free qualifies; past
// it only a job no wider than lim does.
func flatFirst(flat []*job.Job, cutoff, free, lim int64) *job.Job {
	k := sort.Search(len(flat), func(i int) bool { return flat[i].Prediction > cutoff })
	for _, c := range flat[:k] {
		if c.Procs <= free {
			return c
		}
	}
	if lim > 0 {
		for _, c := range flat[k:] {
			if c.Procs <= lim {
				return c
			}
		}
	}
	return nil
}

// checkIndex compares the index with the flat oracle and checks the
// block invariants.
func checkIndex(t *testing.T, step string, x *sjbfIndex, flat []*job.Job) {
	t.Helper()
	var got []*job.Job
	for bi, b := range x.blocks {
		if len(b.jobs) == 0 || len(b.jobs) > blockCap {
			t.Fatalf("%s: block %d holds %d jobs", step, bi, len(b.jobs))
		}
		if len(b.procs) != len(b.jobs) {
			t.Fatalf("%s: block %d holds %d jobs and %d widths", step, bi, len(b.jobs), len(b.procs))
		}
		narrowest, n := b.jobs[0].Procs, 0
		for i, c := range b.jobs {
			if b.procs[i] != c.Procs {
				t.Fatalf("%s: block %d width %d is %d, job has %d", step, bi, i, b.procs[i], c.Procs)
			}
			narrowest = min(narrowest, c.Procs)
		}
		for _, c := range b.jobs {
			if c.Procs == narrowest {
				n++
			}
		}
		if b.minProcs != narrowest || b.nMin != n {
			t.Fatalf("%s: block %d minProcs %d (%d jobs), narrowest job %d (%d jobs)", step, bi, b.minProcs, b.nMin, narrowest, n)
		}
		if bi > 0 && len(x.blocks[bi-1].jobs)+len(b.jobs) <= blockCap/2 {
			t.Fatalf("%s: blocks %d and %d hold only %d jobs together", step, bi-1, bi, len(x.blocks[bi-1].jobs)+len(b.jobs))
		}
		got = append(got, b.jobs...)
	}
	if x.len() != len(flat) || !slices.Equal(got, flat) {
		t.Fatalf("%s: index holds %d jobs (len %d) out of oracle order, want %d", step, len(got), x.len(), len(flat))
	}
}

// TestSJBFIndexMatchesFlatOracle drives the blocked index through random
// inserts, removals (of queued and of unknown jobs) and rebuilds, with
// keys drawn from small ranges so they tie often, and after every step
// compares it with a flat slice kept sorted by insertion after equal
// keys: the same order, the same first qualifying job for a spread of
// (cutoff, free, lim), and intact block invariants.
func TestSJBFIndexMatchesFlatOracle(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		src := rng.New(seed)
		var x sjbfIndex
		var flat, arrival []*job.Job
		id := int64(0)
		newJob := func() *job.Job {
			id++
			return &job.Job{
				ID:         src.Int63n(40), // IDs repeat: keys tie
				Procs:      1 + src.Int63n(64),
				Submit:     src.Int63n(4),
				Prediction: 1 + src.Int63n(60),
				Request:    id, // tells jobs apart in failure messages
			}
		}
		target := 0
		for step := 0; step < 6000; step++ {
			if step%1500 == 0 {
				target = []int{40, 1400, 300, 2500}[step/1500] // shrink and grow across many blocks
			}
			var what string
			switch r := src.Intn(100); {
			case r < 2:
				x.rebuild(arrival)
				what = "rebuild"
			case r < 6:
				// An unknown job, possibly tying with queued ones.
				j := newJob()
				if x.remove(j) {
					t.Fatalf("seed %d step %d: removed a job never inserted", seed, step)
				}
				what = "remove unknown"
			case len(flat) > 0 && (len(flat) > target || r < 40):
				j := arrival[src.Intn(len(arrival))]
				if !x.remove(j) {
					t.Fatalf("seed %d step %d: queued job %d not found", seed, step, j.Request)
				}
				flat = slices.DeleteFunc(flat, func(c *job.Job) bool { return c == j })
				arrival = slices.DeleteFunc(arrival, func(c *job.Job) bool { return c == j })
				what = fmt.Sprintf("remove %d", j.Request)
			default:
				j := newJob()
				x.insert(j)
				i := sort.Search(len(flat), func(i int) bool { return predLess(j, flat[i]) })
				flat = slices.Insert(flat, i, j)
				arrival = append(arrival, j)
				what = fmt.Sprintf("insert %d", j.Request)
			}
			label := fmt.Sprintf("seed %d step %d (%s, %d jobs)", seed, step, what, len(flat))
			checkIndex(t, label, &x, flat)
			for range 8 {
				cutoff := src.Int63n(64) - 1
				free := src.Int63n(66)
				lim := min(src.Int63n(free+1)-src.Int63n(4), free)
				got, want := x.first(cutoff, free, lim), flatFirst(flat, cutoff, free, lim)
				if got != want {
					t.Fatalf("%s: first(%d, %d, %d) = %v, oracle %v", label, cutoff, free, lim, got, want)
				}
			}
		}
	}
}

// TestSJBFIndexSteadyStateAllocatesNothing: once a cycle of inserts and
// removals has split off every block it needs, repeating it reuses the
// block arrays it emptied and allocates nothing.
func TestSJBFIndexSteadyStateAllocatesNothing(t *testing.T) {
	src := rng.New(7)
	jobs := make([]*job.Job, 4000)
	for i := range jobs {
		jobs[i] = &job.Job{ID: int64(i), Procs: 1 + src.Int63n(64), Prediction: 1 + src.Int63n(1000)}
	}
	var x sjbfIndex
	cycle := func() {
		for _, j := range jobs[:2000] {
			x.insert(j)
		}
		for _, j := range jobs[2000:] {
			x.insert(j)
			x.remove(j)
		}
		for _, j := range jobs[:2000] {
			x.remove(j)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(3, cycle); allocs != 0 {
		t.Fatalf("a repeated cycle allocated %.1f times", allocs)
	}
}
