package schedd

import (
	"sync"

	"repro/internal/obs"
)

// hub fans the engine's flight-recorder events out to every live
// event-stream subscriber. It is an obs.Tracer on the engine side
// (called by the single engine goroutine) and a mailbox per subscriber
// on the consumer side: each subscriber owns a buffered queue drained
// by its own HTTP handler goroutine, so a slow or stalled consumer
// never blocks the engine — the engine appends under the subscriber
// mutex and moves on. Events are copied on ingest (including the
// Eligible slice, whose backing array the engine reuses).
type hub struct {
	mu     sync.Mutex
	subs   map[*subscriber]struct{}
	closed bool
}

func newHub() *hub {
	return &hub{subs: make(map[*subscriber]struct{})}
}

// subscriber is one event-stream consumer's mailbox.
type subscriber struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue []obs.Event
	// lent is the batch Next handed out last, spare its cleared array
	// waiting to become the mailbox again, so a steady stream reuses two
	// arrays instead of regrowing the mailbox for every batch.
	lent, spare []obs.Event
	closed      bool
}

// maxRecycled is the largest batch, in events, whose array the mailbox
// reuses; the array of a larger burst is left to the collector.
const maxRecycled = 4096

// Trace implements obs.Tracer; the engine goroutine is the only caller.
func (h *hub) Trace(ev *obs.Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.subs) == 0 {
		return
	}
	cp := *ev
	if len(ev.Eligible) > 0 {
		cp.Eligible = append([]string(nil), ev.Eligible...)
	}
	for s := range h.subs {
		s.mu.Lock()
		if !s.closed {
			s.queue = append(s.queue, cp)
			s.cond.Signal()
		}
		s.mu.Unlock()
	}
}

// subscribe attaches a new mailbox; if the engine already exited it
// arrives pre-closed (Next drains nothing and reports done).
func (h *hub) subscribe() *subscriber {
	s := &subscriber{}
	s.cond = sync.NewCond(&s.mu)
	h.mu.Lock()
	if h.closed {
		s.closed = true
	} else {
		h.subs[s] = struct{}{}
	}
	h.mu.Unlock()
	return s
}

// unsubscribe detaches and closes a mailbox; the consumer calls it on
// disconnect (HTTP handlers via context.AfterFunc).
func (h *hub) unsubscribe(s *subscriber) {
	h.mu.Lock()
	delete(h.subs, s)
	h.mu.Unlock()
	s.close()
}

// closeAll ends every stream after the engine goroutine exits.
func (h *hub) closeAll() {
	h.mu.Lock()
	h.closed = true
	subs := make([]*subscriber, 0, len(h.subs))
	for s := range h.subs {
		subs = append(subs, s)
	}
	h.subs = make(map[*subscriber]struct{})
	h.mu.Unlock()
	for _, s := range subs {
		s.close()
	}
}

func (s *subscriber) close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Next blocks for the next batch of events, swapping the whole mailbox
// out in one take. The batch stays valid until the next call, which
// clears its array and reuses it as the mailbox. It returns ok=false
// once the mailbox is closed and drained — the stream's clean end.
func (s *subscriber) Next() ([]obs.Event, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lent != nil {
		if cap(s.lent) <= maxRecycled {
			clear(s.lent)
			if cap(s.queue) == 0 {
				s.queue = s.lent[:0]
			} else {
				s.spare = s.lent[:0]
			}
		}
		s.lent = nil
	}
	for len(s.queue) == 0 && !s.closed {
		s.cond.Wait()
	}
	if len(s.queue) == 0 {
		return nil, false
	}
	s.lent = s.queue
	s.queue, s.spare = s.spare, nil
	return s.lent, true
}
