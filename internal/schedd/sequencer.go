// Package schedd is the scheduler-as-a-service layer: a daemon that
// accepts job submissions, cancellations and drain/restore
// announcements from many concurrent clients, advances the shared
// event core (sim.RunLive) behind a single sequencing goroutine,
// streams decisions and live per-client metrics out, and answers
// what-if queries by replaying its command log against a hypothetical
// script. The HTTP+JSON surface lives in server.go; cmd/schedd wraps
// it in a process.
//
// The daemon runs in one of two time modes. In virtual mode
// (Options.Scale == 0) clients state the virtual instant of every
// command and raise per-session floors — promises that no later
// command of theirs will carry an earlier instant — and the sequencer
// merges the sessions deterministically (below). In scaled mode
// (Scale > 0) the daemon stamps commands with a monotone virtual
// clock derived from the wall clock (Scale virtual seconds per wall
// second) and arrival order is the schedule; scaled runs are
// real-time, not reproducible.
//
// # Determinism invariants
//
// A virtual-time daemon is deterministic across any interleaving of
// its clients: the schedule depends only on the set of commands each
// session submits, never on goroutine timing. The invariants that
// guarantee it, on top of the sim package's own:
//
//   - Total command order. The sequencer emits the pending command
//     with the least (time, kind, number, session) key — submissions
//     before cancellations before drains before restores within an
//     instant, job number then session name breaking ties — so any
//     partition of a canonically tie-ordered trace (nondecreasing
//     (SubmitTime, JobNumber), the order every workload.Source
//     yields) re-merges into exactly the trace order, and the daemon
//     reproduces sim.RunStream byte for byte
//     (replay_diff_test.go).
//   - Floor discipline. A command is emitted only once every open
//     session's floor has strictly passed its instant (a session with
//     earlier commands still queued is held to those instead), so no
//     later arrival can be ordered before it; sessions opened after
//     traffic starts join at the emission watermark and cannot submit
//     into the past.
//   - Single consumer. One goroutine pulls the merged stream into
//     the engine; every observer (metrics, event stream, command
//     log) sees engine order, so collector float sums are
//     bit-identical to the offline run's.
//
// What-if projections never touch live state: they replay a snapshot
// of the command log (plus the hypothetical script) through a fresh
// engine and fresh policy sessions, trading O(history) replay work
// for zero synchronization with — and provably zero perturbation of —
// the serving path. (Deep-copying the policy sessions instead would
// require remapping their acceleration structures' pointers into live
// jobs; replay reuses the determinism invariant and needs no copy
// support from policies. See internal/sched.)
package schedd

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"repro/internal/sim"
)

// Error is an API error with the HTTP status the server surface maps
// it to; daemon methods return it so in-process callers and the wire
// agree on semantics.
type Error struct {
	Status int
	Msg    string
}

func (e *Error) Error() string { return e.Msg }

func errf(status int, format string, args ...any) *Error {
	return &Error{Status: status, Msg: fmt.Sprintf(format, args...)}
}

// vclock maps the wall clock onto virtual seconds: scale virtual
// seconds elapse per wall second from the epoch. Monotone because the
// wall delta is.
type vclock struct {
	epoch time.Time
	scale float64
}

func (c *vclock) now() int64 {
	return int64(time.Since(c.epoch).Seconds() * c.scale)
}

// session is one client connection's intake state: its FIFO of
// pending commands and its floor — the promise that no future command
// of this session carries an earlier instant.
type session struct {
	name   string
	client int
	queue  cmdFIFO
	floor  int64
	closed bool
}

// cmdFIFO is a queue of pending commands. A pop clears the slot it
// vacates. When the array is full and its vacated prefix is at least as
// long as the live part, a push slides the live part down over it
// instead of growing, so each slide is paid for by the pops before it
// and a queue that never runs dry holds O(peak pending) commands, not
// every command it ever held.
type cmdFIFO struct {
	buf  []sim.Command
	head int
}

func (q *cmdFIFO) len() int { return len(q.buf) - q.head }

// peek returns the head command; the queue must not be empty.
func (q *cmdFIFO) peek() *sim.Command { return &q.buf[q.head] }

func (q *cmdFIFO) push(cmd sim.Command) {
	if len(q.buf) == cap(q.buf) && 2*q.head >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, cmd)
}

func (q *cmdFIFO) pop() sim.Command {
	cmd := q.buf[q.head]
	q.buf[q.head] = sim.Command{}
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return cmd
}

// cmdRank orders command kinds within one instant: submissions first,
// so a same-instant cancellation binds the job it targets (exactly
// RunStream's admit-before-pop discipline), then the remaining kinds
// in event-queue order. The event queue re-serializes the instant by
// event kind regardless.
func cmdRank(k sim.CommandKind) int {
	switch k {
	case sim.CmdSubmit:
		return 0
	case sim.CmdCancel:
		return 1
	case sim.CmdDrain:
		return 2
	case sim.CmdRestore:
		return 3
	}
	return 4
}

// cmdNum is the within-kind tie-break: job number for submissions and
// cancellations, processor count for capacity commands.
func cmdNum(c *sim.Command) int64 {
	switch c.Kind {
	case sim.CmdSubmit:
		return c.Job.JobNumber
	case sim.CmdCancel:
		return c.ID
	}
	return c.Procs
}

// cmdLess is the deterministic merge order over pending heads:
// (time, kind rank, number, session name).
func cmdLess(a, b *sim.Command, an, bn string) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	if ra, rb := cmdRank(a.Kind), cmdRank(b.Kind); ra != rb {
		return ra < rb
	}
	if na, nb := cmdNum(a), cmdNum(b); na != nb {
		return na < nb
	}
	return an < bn
}

// sequencer is the single sequencing boundary between the concurrent
// client surface and the event core: producers enqueue under one
// mutex, one consumer (the engine goroutine) pulls the merged,
// nondecreasing-time command stream via NextCommand.
type sequencer struct {
	mu   sync.Mutex
	cond *sync.Cond

	// clock is non-nil in scaled mode, where arrival stamping replaces
	// the deterministic merge.
	clock *vclock

	sessions map[string]*session
	// watermark is the largest emitted command or advance instant; new
	// sessions join at it so they cannot submit into the past.
	watermark int64
	// lastAdvance dedups synthesized advance promises.
	lastAdvance int64
	draining    bool

	// fifo is the scaled-mode global queue (arrival order is the
	// schedule, so sessions carry no ordering state).
	fifo cmdFIFO
	// tickPending gates scaled-mode advance synthesis on the ticker:
	// emitting an advance per NextCommand call would hot-spin the
	// engine, since the clock moves between any two reads.
	tickPending bool
}

func newSequencer(clock *vclock) *sequencer {
	s := &sequencer{
		clock:       clock,
		sessions:    make(map[string]*session),
		lastAdvance: math.MinInt64,
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// open registers a session at the current watermark.
func (s *sequencer) open(name string, client int) error {
	if name == "" {
		return errf(http.StatusBadRequest, "schedd: session name must not be empty")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return errf(http.StatusConflict, "schedd: daemon is draining")
	}
	if s.sessions[name] != nil {
		return errf(http.StatusConflict, "schedd: session %q already open", name)
	}
	s.sessions[name] = &session{name: name, client: client, floor: s.watermark}
	return nil
}

// close marks a session finished: its queued commands still drain,
// and its floor no longer constrains emission.
func (s *sequencer) close(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessions[name]
	if sess == nil {
		return errf(http.StatusNotFound, "schedd: unknown session %q", name)
	}
	if sess.closed {
		return errf(http.StatusConflict, "schedd: session %q already closed", name)
	}
	sess.closed = true
	s.cond.Broadcast()
	return nil
}

// enqueue appends one command to a session. In virtual mode the
// command's instant must not regress the session floor (and raises
// it); in scaled mode the instant is stamped from the clock. A
// submission with no partition stamp inherits the session's client
// index.
func (s *sequencer) enqueue(name string, cmd sim.Command) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessions[name]
	if sess == nil {
		return errf(http.StatusNotFound, "schedd: unknown session %q", name)
	}
	if sess.closed {
		return errf(http.StatusConflict, "schedd: session %q is closed", name)
	}
	if s.draining {
		return errf(http.StatusConflict, "schedd: daemon is draining")
	}
	if cmd.Kind == sim.CmdSubmit && cmd.Job.Partition == 0 {
		cmd.Job.Partition = int64(sess.client) + 1
	}
	if s.clock != nil {
		t := s.clock.now()
		if t < s.watermark {
			t = s.watermark
		}
		cmd.Time = t
		if cmd.Kind == sim.CmdSubmit {
			cmd.Job.SubmitTime = t
		}
		s.watermark = t
		s.fifo.push(cmd)
	} else {
		if cmd.Time < sess.floor {
			return errf(http.StatusConflict, "schedd: session %q: command at %d is behind the session floor %d", name, cmd.Time, sess.floor)
		}
		sess.floor = cmd.Time
		sess.queue.push(cmd)
	}
	s.cond.Broadcast()
	return nil
}

// advance raises a session's floor without enqueuing anything —
// virtual mode's heartbeat, letting the engine retire events up to
// the slowest client's promise.
func (s *sequencer) advance(name string, t int64) error {
	if s.clock != nil {
		return errf(http.StatusConflict, "schedd: a scaled-time daemon advances with its own clock")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessions[name]
	if sess == nil {
		return errf(http.StatusNotFound, "schedd: unknown session %q", name)
	}
	if sess.closed {
		return errf(http.StatusConflict, "schedd: session %q is closed", name)
	}
	if t > sess.floor {
		sess.floor = t
		s.cond.Broadcast()
	}
	return nil
}

// drain closes the intake: every session is closed, no new ones open,
// and once the queues empty NextCommand returns io.EOF — the engine
// then runs every remaining event to completion.
func (s *sequencer) drain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.draining = true
	for _, sess := range s.sessions {
		sess.closed = true
	}
	s.cond.Broadcast()
}

// wake marks a clock tick; the scaled-mode ticker calls it so the
// clock's progress turns into advance promises.
func (s *sequencer) wake() {
	s.mu.Lock()
	s.tickPending = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// snapshot reports the watermark and open-session count.
func (s *sequencer) snapshot() (watermark int64, open int, draining bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sess := range s.sessions {
		if !sess.closed {
			open++
		}
	}
	return s.watermark, open, s.draining
}

// NextCommand implements sim.CommandSource for the single engine
// goroutine: it blocks until a command is safely emittable, emitting
// synthesized advance promises whenever the floors (or the scaled
// clock) move past the last promise, and io.EOF once the daemon is
// draining and the queues are dry.
func (s *sequencer) NextCommand(cmd *sim.Command) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.clock != nil {
			if s.fifo.len() > 0 {
				*cmd = s.fifo.pop()
				return nil
			}
			if s.draining {
				return io.EOF
			}
			if s.tickPending {
				s.tickPending = false
				t := s.clock.now()
				if t < s.watermark {
					t = s.watermark
				}
				if t > s.lastAdvance {
					s.lastAdvance = t
					s.watermark = t
					*cmd = sim.AdvanceCommand(t)
					return nil
				}
			}
			s.cond.Wait()
			continue
		}

		// Virtual mode: deterministic k-way merge. The emitted command
		// is the least pending head, and it is emittable only once no
		// open session without pending commands could still produce one
		// ordered before it — strictly below every such floor, because
		// a command enqueued later at exactly the floor instant could
		// still win the within-instant tie-break. (A session with
		// pending commands is constrained by its head instead: its
		// floor is at least every pending instant, so any future
		// command of its sorts after them.)
		var best *session
		minOpenFloor := int64(math.MaxInt64)
		idle := true
		for _, sess := range s.sessions {
			if sess.queue.len() > 0 {
				idle = false
				if best == nil || cmdLess(sess.queue.peek(), best.queue.peek(), sess.name, best.name) {
					best = sess
				}
			} else if !sess.closed {
				idle = false
				if sess.floor < minOpenFloor {
					minOpenFloor = sess.floor
				}
			}
		}
		if best != nil && best.queue.peek().Time < minOpenFloor {
			*cmd = best.queue.pop()
			if cmd.Time > s.watermark {
				s.watermark = cmd.Time
			}
			return nil
		}
		if idle && s.draining {
			return io.EOF
		}
		// Emission is blocked; if the floors have collectively moved,
		// promise the progress to the engine so queued events before
		// the slowest floor can retire.
		if minOpenFloor > s.lastAdvance && minOpenFloor < math.MaxInt64 {
			s.lastAdvance = minOpenFloor
			if minOpenFloor > s.watermark {
				s.watermark = minOpenFloor
			}
			*cmd = sim.AdvanceCommand(minOpenFloor)
			return nil
		}
		s.cond.Wait()
	}
}
