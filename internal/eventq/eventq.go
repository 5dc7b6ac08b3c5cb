// Package eventq implements the discrete-event core of the simulator: a
// binary-heap priority queue of timestamped events with fully
// deterministic ordering. Events at equal timestamps are ordered by kind
// (completions, then cancellations and capacity changes, then prediction
// expiries, then submissions — so that freed resources, disruptions and
// corrected predictions are all visible to scheduling decisions made at
// the same instant) and then by insertion sequence.
//
// # Determinism invariants
//
// (time, kind, sequence) is a total order — the sequence counter makes
// every event unique — so the pop order is one canonical permutation of
// the pushed events regardless of heap internals, backing-array
// capacity, or how the queue was grown. Reserve sizes the backing array
// up front without touching that order: pushes into reserved capacity
// are allocation-free and pop the exact sequence an unreserved queue
// would.
package eventq

// Kind classifies simulation events. The numeric order is the processing
// order at equal timestamps.
type Kind int

const (
	// Finish is a job completion. It precedes Cancel so that a
	// cancellation landing on the job's completion instant is stale.
	Finish Kind = iota
	// Cancel removes a job from the system (scenario disruption). It
	// precedes Submit so that a cancellation at the submission instant
	// drops the job before it ever queues.
	Cancel
	// Drain takes processors out of service (scenario disruption).
	Drain
	// Restore returns drained processors to service (scenario
	// disruption).
	Restore
	// Expiry fires when a running job outlives its predicted running time.
	Expiry
	// Submit is a job arrival.
	Submit
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case Finish:
		return "finish"
	case Cancel:
		return "cancel"
	case Drain:
		return "drain"
	case Restore:
		return "restore"
	case Expiry:
		return "expiry"
	case Submit:
		return "submit"
	}
	return "unknown"
}

// Event is one scheduled occurrence carrying an opaque payload.
type Event[T any] struct {
	Time    int64
	Kind    Kind
	seq     uint64
	Payload T
}

// Queue is a min-heap of events. The zero value is ready to use.
type Queue[T any] struct {
	items   []Event[T]
	nextSeq uint64
}

// Len returns the number of pending events.
func (q *Queue[T]) Len() int { return len(q.items) }

// Reserve grows the queue's backing array so it can hold at least n
// events without reallocating. A preloading run reserves its whole
// trace up front; a streaming run's queue stays at the live-event
// watermark, so after warm-up no push allocates.
func (q *Queue[T]) Reserve(n int) {
	if cap(q.items) >= n {
		return
	}
	items := make([]Event[T], len(q.items), n)
	copy(items, q.items)
	q.items = items
}

// Push schedules an event.
func (q *Queue[T]) Push(time int64, kind Kind, payload T) {
	q.items = append(q.items, Event[T]{Time: time, Kind: kind, seq: q.nextSeq, Payload: payload})
	q.nextSeq++
	q.up(len(q.items) - 1)
}

// Pop removes and returns the earliest event. The second return value is
// false when the queue is empty.
func (q *Queue[T]) Pop() (Event[T], bool) {
	if len(q.items) == 0 {
		var zero Event[T]
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

// PeekTime returns the timestamp of the earliest event without removing
// it. The second return value is false when the queue is empty.
func (q *Queue[T]) PeekTime() (int64, bool) {
	if len(q.items) == 0 {
		return 0, false
	}
	return q.items[0].Time, true
}

func (q *Queue[T]) less(a, b int) bool {
	ea, eb := &q.items[a], &q.items[b]
	if ea.Time != eb.Time {
		return ea.Time < eb.Time
	}
	if ea.Kind != eb.Kind {
		return ea.Kind < eb.Kind
	}
	return ea.seq < eb.seq
}

func (q *Queue[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

func (q *Queue[T]) down(i int) {
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
