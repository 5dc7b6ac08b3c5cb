// Package eventq implements the discrete-event core of the simulator: a
// priority queue of timestamped events with fully deterministic
// ordering. Events at equal timestamps are ordered by kind (completions,
// then cancellations and capacity changes, then prediction expiries,
// then submissions — so that freed resources, disruptions and corrected
// predictions are all visible to scheduling decisions made at the same
// instant) and then by insertion sequence.
//
// # Layout
//
// The queue is two sorted sequences merged at the head. Submissions
// pushed in time order wait in a FIFO ring, in place: an intake that
// reads a time-ordered trace (a streamed or live run, or a preloaded
// sorted one) pushes every arrival there, and a same-instant burst
// costs no sifting at all. Every other event, and any submission that
// sorts before the FIFO's tail, goes into a binary min-heap whose
// entries are pointer-free (time, kind|sequence, slab handle) triples;
// the payloads sit still in a slab with a free list, so a sift moves 24
// bytes and no pointer.
//
// # Determinism invariants
//
// (time, kind, sequence) is a total order — the sequence counter makes
// every event unique — so the pop order is one canonical permutation of
// the pushed events regardless of heap internals, which of the two
// sequences an event waited in, backing-array capacity, or how the
// queue was grown. Pop takes the smaller of the two heads under that
// order, which is an exact merge because each sequence is sorted by it.
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
	Payload T
}

// kindShift places an event's kind above its sequence number in one
// ordering key, so (kind, seq) compares as a single integer.
const kindShift = 61

// entry is a heap slot: the event's place in the total order and the
// slab handle of its payload.
type entry struct {
	time int64
	key  uint64 // kind<<kindShift | seq
	h    uint32
}

func (a *entry) less(b *entry) bool { return before(a.time, a.key, b.time, b.key) }

// before is the queue's total order on (time, kind<<kindShift | seq).
func before(ta int64, ka uint64, tb int64, kb uint64) bool {
	return ta < tb || ta == tb && ka < kb
}

// arrival is a FIFO slot: a Submit event held with its payload.
type arrival[T any] struct {
	time    int64
	key     uint64
	payload T
}

// Queue is a deterministic event queue. The zero value is ready to use.
type Queue[T any] struct {
	// fifo is a ring of len(fifo) slots holding n time-ordered
	// submissions from head on; last is the newest one's instant.
	fifo []arrival[T]
	head int
	n    int
	last int64

	heap []entry
	slab []T
	free []uint32

	nextSeq uint64
}

// Len returns the number of pending events.
func (q *Queue[T]) Len() int { return q.n + len(q.heap) }

// Reserve grows the submission FIFO so it can hold at least n
// submissions without reallocating. A preloading run reserves its whole
// time-ordered trace up front; the heap and its slab hold only the live
// jobs' completions and expiries (plus any out-of-order submission) and
// grow to that watermark on their own, as a streaming run's structures
// all do, so after warm-up no push allocates.
func (q *Queue[T]) Reserve(n int) {
	if len(q.fifo) < n {
		q.regrow(n)
	}
}

// regrow moves the FIFO's pending submissions, oldest first, into a
// fresh ring of c slots.
func (q *Queue[T]) regrow(c int) {
	ring := make([]arrival[T], c)
	k := copy(ring, q.fifo[q.head:min(q.head+q.n, len(q.fifo))])
	copy(ring[k:], q.fifo[:q.n-k])
	q.fifo, q.head = ring, 0
}

// Push schedules an event.
func (q *Queue[T]) Push(time int64, kind Kind, payload T) {
	key := uint64(kind)<<kindShift | q.nextSeq
	q.nextSeq++
	if kind == Submit && (q.n == 0 || time >= q.last) {
		if q.n == len(q.fifo) {
			q.regrow(max(2*q.n, 64))
		}
		i := q.head + q.n
		if i >= len(q.fifo) {
			i -= len(q.fifo)
		}
		q.fifo[i] = arrival[T]{time: time, key: key, payload: payload}
		q.n++
		q.last = time
		return
	}
	if q.heap == nil {
		// One allocation each instead of append's 1, 2, 4, ... ramp.
		q.heap = make([]entry, 0, 64)
		q.slab = make([]T, 0, 64)
		q.free = make([]uint32, 0, 64)
	}
	var h uint32
	if k := len(q.free); k > 0 {
		h = q.free[k-1]
		q.free = q.free[:k-1]
		q.slab[h] = payload
	} else {
		h = uint32(len(q.slab))
		q.slab = append(q.slab, payload)
	}
	q.heap = append(q.heap, entry{time: time, key: key, h: h})
	q.up(len(q.heap) - 1)
}

// Pop removes and returns the earliest event. The second return value is
// false when the queue is empty.
func (q *Queue[T]) Pop() (Event[T], bool) {
	var zero T
	if q.n > 0 {
		a := &q.fifo[q.head]
		if len(q.heap) == 0 || before(a.time, a.key, q.heap[0].time, q.heap[0].key) {
			ev := Event[T]{Time: a.time, Kind: Submit, Payload: a.payload}
			a.payload = zero // the ring must not keep the payload reachable
			if q.head++; q.head == len(q.fifo) {
				q.head = 0
			}
			q.n--
			return ev, true
		}
	}
	if len(q.heap) == 0 {
		return Event[T]{}, false
	}
	top := q.heap[0]
	last := len(q.heap) - 1
	if last > 0 {
		q.down(q.heap[last])
	}
	q.heap = q.heap[:last]
	ev := Event[T]{Time: top.time, Kind: Kind(top.key >> kindShift), Payload: q.slab[top.h]}
	q.slab[top.h] = zero
	q.free = append(q.free, top.h)
	return ev, true
}

// PeekTime returns the timestamp of the earliest event without removing
// it. The second return value is false when the queue is empty.
func (q *Queue[T]) PeekTime() (int64, bool) {
	switch {
	case q.n > 0 && len(q.heap) > 0:
		return min(q.fifo[q.head].time, q.heap[0].time), true
	case q.n > 0:
		return q.fifo[q.head].time, true
	case len(q.heap) > 0:
		return q.heap[0].time, true
	}
	return 0, false
}

// up restores the heap order after an insertion at i.
func (q *Queue[T]) up(i int) {
	h := q.heap
	x := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !x.less(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = x
}

// down places x, the heap's last entry, starting from the vacated root;
// the caller then drops the last slot.
func (q *Queue[T]) down(x entry) {
	h := q.heap[:len(q.heap)-1]
	n := len(h)
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].less(&h[c]) {
			c = r
		}
		if !h[c].less(&x) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}
