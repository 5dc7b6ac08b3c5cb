package sim

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/job"
)

// checkQueue holds a cluster's waiting queue to a plain FCFS slice: same
// jobs in the same order, and every slot of the array outside the
// waiting range cleared, so no started or canceled job stays reachable.
func checkQueue(t *testing.T, c *clusterState, want []*job.Job, step int) {
	t.Helper()
	if got := c.waiting(); !slices.Equal(got, want) {
		t.Fatalf("step %d: waiting queue has %d jobs, model %d", step, len(got), len(want))
	}
	for i, j := range c.queue[:cap(c.queue)] {
		if (i < c.head || i >= len(c.queue)) && j != nil {
			t.Fatalf("step %d: vacated slot %d still holds job %d (head %d, len %d)", step, i, j.ID, c.head, len(c.queue))
		}
	}
}

// TestWaitingQueueMatchesSlice drives the waiting queue with random
// enqueues and removals at the head, the tail, anywhere between, and of
// jobs it does not hold, against a slice model.
func TestWaitingQueueMatchesSlice(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		e := &engine{}
		c := &clusterState{queue: make([]*job.Job, 0, 1+r.Intn(8))}
		var model []*job.Job
		headOdds := 1 + r.Intn(4)
		for step := 0; step < 3000; step++ {
			switch {
			case len(model) == 0 || r.Intn(2) == 0:
				j := &job.Job{ID: int64(step)}
				e.enqueue(c, j)
				model = append(model, j)
			case r.Intn(10) == 0:
				stranger := &job.Job{ID: -1, Seq: model[r.Intn(len(model))].Seq}
				if c.dequeue(stranger) || c.dequeue(&job.Job{ID: -2}) {
					t.Fatalf("step %d: dequeued a job the queue does not hold", step)
				}
			default:
				k := 0
				if r.Intn(headOdds) != 0 {
					k = r.Intn(len(model))
				}
				if !c.dequeue(model[k]) {
					t.Fatalf("step %d: job %d at %d not found", step, model[k].ID, k)
				}
				model = slices.Delete(model, k, k+1)
			}
			checkQueue(t, c, model, step)
		}
	}
}

// TestWaitingQueueCycleAllocatesNothing: a steady enqueue and
// head-removal cycle slides the queue down its array instead of growing
// it, so it allocates nothing.
func TestWaitingQueueCycleAllocatesNothing(t *testing.T) {
	e := &engine{}
	c := &clusterState{queue: make([]*job.Job, 0, 64)}
	jobs := make([]job.Job, 200)
	next := 0
	push := func() {
		e.enqueue(c, &jobs[next%len(jobs)])
		next++
	}
	for i := 0; i < 40; i++ {
		push()
	}
	cycle := func() {
		push()
		if !c.dequeue(c.waiting()[0]) {
			t.Fatal("head not found")
		}
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("enqueue/head-removal cycle allocated %v times", allocs)
	}
	if n := len(c.waiting()); n != 40 {
		t.Fatalf("queue holds %d jobs, want 40", n)
	}
}
