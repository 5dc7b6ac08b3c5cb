package eventq

import (
	"math/rand"
	"testing"
)

// refQueue is the binary heap of whole events that the FIFO-beside-heap
// layout replaced, kept as the reference the queue must pop identically
// to: every event, submissions included, sifts through one heap ordered
// by (time, kind, seq).
type refQueue[T any] struct {
	items   []refEvent[T]
	nextSeq uint64
}

type refEvent[T any] struct {
	Time    int64
	Kind    Kind
	seq     uint64
	Payload T
}

func (q *refQueue[T]) Len() int { return len(q.items) }

func (q *refQueue[T]) Push(time int64, kind Kind, payload T) {
	q.items = append(q.items, refEvent[T]{Time: time, Kind: kind, seq: q.nextSeq, Payload: payload})
	q.nextSeq++
	q.up(len(q.items) - 1)
}

func (q *refQueue[T]) Pop() (refEvent[T], bool) {
	if len(q.items) == 0 {
		var zero refEvent[T]
		return zero, false
	}
	top := q.items[0]
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	q.items = q.items[:last]
	if last > 0 {
		q.down(0)
	}
	return top, true
}

func (q *refQueue[T]) PeekTime() (int64, bool) {
	if len(q.items) == 0 {
		return 0, false
	}
	return q.items[0].Time, true
}

func (q *refQueue[T]) less(a, b int) bool {
	ea, eb := &q.items[a], &q.items[b]
	if ea.Time != eb.Time {
		return ea.Time < eb.Time
	}
	if ea.Kind != eb.Kind {
		return ea.Kind < eb.Kind
	}
	return ea.seq < eb.seq
}

func (q *refQueue[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

func (q *refQueue[T]) down(i int) {
	n := len(q.items)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && q.less(right, left) {
			smallest = right
		}
		if !q.less(smallest, i) {
			return
		}
		q.items[i], q.items[smallest] = q.items[smallest], q.items[i]
		i = smallest
	}
}

// TestQueueMatchesReferenceHeap drives the queue and the reference heap
// with the same random interleavings of pops and of pushes of every
// kind. Submissions come in order, out of order (before the FIFO's
// tail, so into the heap), tied at the tail's instant, and in
// same-instant bursts; the other kinds land near the clock, where ties
// with submissions are common. The popped (time, kind, payload)
// sequences must be identical, and so must Len and PeekTime after
// every step.
func TestQueueMatchesReferenceHeap(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 300; trial++ {
		var q Queue[int]
		var ref refQueue[int]
		if r.Intn(2) == 0 {
			q.Reserve(r.Intn(200))
		}
		span := 1 + r.Int63n(40) // small spans make ties the norm
		popOdds := 2 + r.Intn(4)
		outOfOrder := r.Intn(6) // 0: every submission in order
		var clock, tail int64
		id := 0
		push := func(at int64, k Kind) {
			q.Push(at, k, id)
			ref.Push(at, k, id)
			id++
		}
		check := func(step int) {
			if q.Len() != ref.Len() {
				t.Fatalf("trial %d step %d: Len %d, reference %d", trial, step, q.Len(), ref.Len())
			}
			at, ok := q.PeekTime()
			wantAt, wantOK := ref.PeekTime()
			if at != wantAt || ok != wantOK {
				t.Fatalf("trial %d step %d: PeekTime (%d, %v), reference (%d, %v)", trial, step, at, ok, wantAt, wantOK)
			}
		}
		pop := func(step int) {
			e, ok := q.Pop()
			w, wok := ref.Pop()
			if ok != wok || e.Time != w.Time || e.Kind != w.Kind || e.Payload != w.Payload {
				t.Fatalf("trial %d step %d: popped (t=%d %v #%d ok=%v), reference (t=%d %v #%d ok=%v)",
					trial, step, e.Time, e.Kind, e.Payload, ok, w.Time, w.Kind, w.Payload, wok)
			}
			if ok {
				clock = e.Time
			}
		}
		for step := 0; step < 1500; step++ {
			switch {
			case ref.Len() > 0 && r.Intn(popOdds) == 0:
				pop(step)
			case r.Intn(4) == 0:
				k := Kind(r.Intn(int(Submit)))
				push(clock+r.Int63n(span), k)
			case r.Intn(8) == 0:
				// A burst: a run of submissions at one instant.
				at := max(tail, clock) + r.Int63n(span)
				for n := 1 + r.Intn(20); n > 0; n-- {
					push(at, Submit)
				}
				tail = at
			case outOfOrder > 0 && r.Intn(outOfOrder+1) == 0:
				push(tail-r.Int63n(span)-1, Submit)
			case r.Intn(3) == 0:
				push(tail, Submit)
			default:
				tail += r.Int63n(span)
				push(tail, Submit)
			}
			check(step)
		}
		for step := 0; ref.Len() > 0; step++ {
			pop(step)
			check(step)
		}
		if _, ok := q.Pop(); ok {
			t.Fatalf("trial %d: queue outlived the reference", trial)
		}
	}
}

// TestSteadyPushPopAllocatesNothing: once the ring, the heap, the slab
// and the free list have reached the live-event watermark, a push/pop
// cycle of submissions, completions and expiries allocates nothing.
func TestSteadyPushPopAllocatesNothing(t *testing.T) {
	var q Queue[*int]
	x := new(int)
	var clock int64
	cycle := func() {
		for i := 0; i < 8; i++ {
			q.Push(clock+1, Submit, x)
		}
		q.Push(clock+50, Finish, x)
		q.Push(clock+20, Expiry, x)
		for i := 0; i < 10; i++ {
			e, _ := q.Pop()
			clock = e.Time
		}
	}
	for i := 0; i < 200; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("steady push/pop allocated %v times per cycle", allocs)
	}
}

// TestPopReleasesPayload: a popped event's slot, in the ring or in the
// slab, no longer holds its payload, so a retired job can be collected.
func TestPopReleasesPayload(t *testing.T) {
	var q Queue[*int]
	q.Push(1, Submit, new(int))
	q.Push(2, Finish, new(int))
	q.Pop()
	q.Pop()
	for i := range q.fifo {
		if q.fifo[i].payload != nil {
			t.Fatalf("ring slot %d still holds a payload", i)
		}
	}
	for i, p := range q.slab {
		if p != nil {
			t.Fatalf("slab slot %d still holds a payload", i)
		}
	}
}
