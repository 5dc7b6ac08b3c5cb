package eventq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyQueue(t *testing.T) {
	var q Queue[int]
	if q.Len() != 0 {
		t.Fatal("empty queue has non-zero length")
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty queue returned ok")
	}
	if _, ok := q.PeekTime(); ok {
		t.Fatal("PeekTime on empty queue returned ok")
	}
}

func TestTimeOrdering(t *testing.T) {
	var q Queue[int]
	times := []int64{50, 10, 30, 20, 40}
	for i, tm := range times {
		q.Push(tm, Submit, i)
	}
	var got []int64
	for q.Len() > 0 {
		e, _ := q.Pop()
		got = append(got, e.Time)
	}
	if !sort.SliceIsSorted(got, func(a, b int) bool { return got[a] < got[b] }) {
		t.Fatalf("events not in time order: %v", got)
	}
}

func TestKindOrderingAtSameTime(t *testing.T) {
	var q Queue[string]
	q.Push(100, Submit, "submit")
	q.Push(100, Finish, "finish")
	q.Push(100, Expiry, "expiry")
	want := []string{"finish", "expiry", "submit"}
	for _, w := range want {
		e, ok := q.Pop()
		if !ok || e.Payload != w {
			t.Fatalf("got %q, want %q", e.Payload, w)
		}
	}
}

func TestFIFOWithinSameTimeAndKind(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 10; i++ {
		q.Push(5, Submit, i)
	}
	for i := 0; i < 10; i++ {
		e, _ := q.Pop()
		if e.Payload != i {
			t.Fatalf("insertion order broken: got %d at position %d", e.Payload, i)
		}
	}
}

func TestPeekTime(t *testing.T) {
	var q Queue[int]
	q.Push(42, Submit, 0)
	q.Push(7, Finish, 1)
	if tm, ok := q.PeekTime(); !ok || tm != 7 {
		t.Fatalf("PeekTime = %d, want 7", tm)
	}
	if q.Len() != 2 {
		t.Fatal("PeekTime must not remove events")
	}
}

func TestInterleavedPushPop(t *testing.T) {
	var q Queue[int64]
	r := rand.New(rand.NewSource(1))
	var lastPopped int64 = -1 << 62
	pending := 0
	for i := 0; i < 10000; i++ {
		if pending == 0 || r.Intn(2) == 0 {
			// Pushing a time in the past relative to popped events would be
			// a simulation bug; only push >= lastPopped to model reality.
			tm := lastPopped + r.Int63n(100)
			if tm < 0 {
				tm = 0
			}
			q.Push(tm, Submit, tm)
			pending++
		} else {
			e, ok := q.Pop()
			if !ok {
				t.Fatal("Pop failed with pending events")
			}
			if e.Time < lastPopped {
				t.Fatalf("time went backwards: %d after %d", e.Time, lastPopped)
			}
			lastPopped = e.Time
			pending--
		}
	}
}

func TestKindString(t *testing.T) {
	if Finish.String() != "finish" || Expiry.String() != "expiry" || Submit.String() != "submit" {
		t.Fatal("Kind.String broken")
	}
	if Kind(99).String() != "unknown" {
		t.Fatal("unknown kind should stringify as unknown")
	}
}

func TestQuickHeapProperty(t *testing.T) {
	f := func(times []int64) bool {
		var q Queue[int]
		for i, tm := range times {
			if tm < 0 {
				tm = -tm
			}
			q.Push(tm, Submit, i)
		}
		prev := int64(-1)
		for q.Len() > 0 {
			e, _ := q.Pop()
			if e.Time < prev {
				return false
			}
			prev = e.Time
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPushPop(b *testing.B) {
	var q Queue[int]
	r := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		q.Push(r.Int63n(1<<40), Submit, i)
		if q.Len() > 1024 {
			q.Pop()
		}
	}
}

// TestAllKindsOrderingAtSameInstant pins the complete same-instant kind
// order — Finish < Cancel < Drain < Restore < Expiry < Submit — from
// every insertion order, not just one lucky permutation. This is the
// contract the engine's decision ordering (and the flight-recorder
// traces built on it) depends on: freed resources, disruptions and
// corrected predictions are all visible before same-instant arrivals.
func TestAllKindsOrderingAtSameInstant(t *testing.T) {
	kinds := []Kind{Finish, Cancel, Drain, Restore, Expiry, Submit}
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		perm := r.Perm(len(kinds))
		var q Queue[Kind]
		for _, i := range perm {
			q.Push(1000, kinds[i], kinds[i])
		}
		for _, want := range kinds {
			e, ok := q.Pop()
			if !ok {
				t.Fatalf("trial %d (perm %v): queue ran dry before %v", trial, perm, want)
			}
			if e.Kind != want || e.Payload != want {
				t.Fatalf("trial %d (perm %v): popped %v, want %v", trial, perm, e.Kind, want)
			}
		}
	}
}

// TestFIFOWithinEveryKind extends the FIFO guarantee beyond Submit: at
// one instant, ties inside each kind break by insertion sequence even
// when the kinds are interleaved on the way in.
func TestFIFOWithinEveryKind(t *testing.T) {
	kinds := []Kind{Finish, Cancel, Drain, Restore, Expiry, Submit}
	var q Queue[int]
	// Interleave: kind k gets payloads k*100+0..4, pushed round-robin.
	for rep := 0; rep < 5; rep++ {
		for _, k := range kinds {
			q.Push(42, k, int(k)*100+rep)
		}
	}
	for _, k := range kinds {
		for rep := 0; rep < 5; rep++ {
			e, ok := q.Pop()
			if !ok {
				t.Fatalf("queue ran dry at kind %v rep %d", k, rep)
			}
			if e.Kind != k || e.Payload != int(k)*100+rep {
				t.Fatalf("got kind %v payload %d, want kind %v payload %d",
					e.Kind, e.Payload, k, int(k)*100+rep)
			}
		}
	}
}

// TestRandomizedVsStableSort drains a queue of random (time, kind)
// events — times drawn from a tiny range so collisions are the norm —
// and compares against the reference model: a stable sort by (time,
// kind), which preserves insertion order exactly where the queue's seq
// tiebreak must.
func TestRandomizedVsStableSort(t *testing.T) {
	type ref struct {
		time int64
		kind Kind
		id   int
	}
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		n := 200 + r.Intn(300)
		events := make([]ref, n)
		var q Queue[int]
		for i := range events {
			events[i] = ref{time: r.Int63n(10), kind: Kind(r.Intn(6)), id: i}
			q.Push(events[i].time, events[i].kind, i)
		}
		want := append([]ref(nil), events...)
		sort.SliceStable(want, func(a, b int) bool {
			if want[a].time != want[b].time {
				return want[a].time < want[b].time
			}
			return want[a].kind < want[b].kind
		})
		for i, w := range want {
			e, ok := q.Pop()
			if !ok {
				t.Fatalf("trial %d: queue ran dry at %d/%d", trial, i, n)
			}
			if e.Time != w.time || e.Kind != w.kind || e.Payload != w.id {
				t.Fatalf("trial %d pos %d: popped (t=%d k=%v id=%d), want (t=%d k=%v id=%d)",
					trial, i, e.Time, e.Kind, e.Payload, w.time, w.kind, w.id)
			}
		}
		if q.Len() != 0 {
			t.Fatalf("trial %d: %d events left over", trial, q.Len())
		}
	}
}

func TestReserveKeepsPoolAndOrder(t *testing.T) {
	var q Queue[int]
	q.Reserve(64)
	if got := len(q.fifo); got < 64 {
		t.Fatalf("FIFO slots after Reserve(64) = %d", got)
	}
	// AllocsPerRun calls the function twice (one warm-up run): 64 pushes.
	n := 0
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 32; i++ {
			q.Push(5, Submit, n)
			n++
		}
	})
	if allocs != 0 {
		t.Fatalf("pushes into reserved capacity allocated %v times", allocs)
	}
	// Reserve below current capacity is a no-op.
	before := len(q.fifo)
	q.Reserve(8)
	if len(q.fifo) != before {
		t.Fatalf("shrinking Reserve changed capacity %d -> %d", before, len(q.fifo))
	}
	// Reserving more than the current capacity copies the pending events
	// and keeps their same-instant insertion order.
	q.Reserve(4 * before)
	for want := 0; want < 64; want++ {
		e, ok := q.Pop()
		if !ok || e.Payload != want {
			t.Fatalf("pop %d after growing Reserve: got %d (ok=%v)", want, e.Payload, ok)
		}
	}
}

func TestPeekMatchesPop(t *testing.T) {
	var q Queue[string]
	if _, ok := q.PeekTime(); ok {
		t.Fatal("PeekTime on an empty queue reported an event")
	}
	q.Push(9, Submit, "later")
	q.Push(3, Finish, "first")
	at, ok := q.PeekTime()
	if !ok || at != 3 {
		t.Fatalf("PeekTime = (%d, %v), want (3, true)", at, ok)
	}
	e, _ := q.Pop()
	if e.Time != at || e.Payload != "first" {
		t.Fatalf("Pop %+v does not match the preceding PeekTime %d", e, at)
	}
}
