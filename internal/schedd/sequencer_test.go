package schedd

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/swf"
)

// TestSessionQueueNeverDryStaysSmall submits 100,000 jobs through
// session a, one per second, while session b advances its floor four
// seconds behind. Only a's commands more than four seconds old are
// emittable, so a always holds a few pending commands and never runs
// dry. Its array must stay within a small multiple of that peak rather
// than keep a cleared slot for every command it ever held.
func TestSessionQueueNeverDryStaysSmall(t *testing.T) {
	const n, lag = 100_000, 4
	s := newSequencer(nil)
	for _, name := range []string{"a", "b"} {
		if err := s.open(name, 0); err != nil {
			t.Fatal(err)
		}
	}
	emitted := make(chan sim.Command)
	go func() {
		defer close(emitted)
		var cmd sim.Command
		for {
			if err := s.NextCommand(&cmd); err != nil {
				return
			}
			if cmd.Kind == sim.CmdSubmit {
				emitted <- cmd
			}
		}
	}()
	pending := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.sessions["a"].queue.len()
	}
	peak := 0
	for i := int64(1); i <= n; i++ {
		rec := swf.Job{JobNumber: i, SubmitTime: i, RunTime: 1, AllocatedProcs: 1, RequestedProcs: 1, RequestedTime: 1}
		if err := s.enqueue("a", sim.SubmitCommand(rec)); err != nil {
			t.Fatal(err)
		}
		if err := s.advance("b", i-lag); err != nil {
			t.Fatal(err)
		}
		peak = max(peak, pending())
		if i > lag+1 {
			if cmd := <-emitted; cmd.Time != i-lag-1 {
				t.Fatalf("step %d emitted the command at %d, want %d", i, cmd.Time, i-lag-1)
			}
		}
	}
	s.drain()
	for range emitted {
	}
	s.mu.Lock()
	size := cap(s.sessions["a"].queue.buf)
	s.mu.Unlock()
	if peak > lag+2 || size > 4*peak {
		t.Fatalf("session queue array holds %d commands for at most %d pending", size, peak)
	}
}
