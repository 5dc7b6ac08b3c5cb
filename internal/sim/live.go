package sim

import (
	"fmt"
	"io"

	"repro/internal/job"
	"repro/internal/swf"
)

// CommandKind enumerates the operations a live command stream can
// carry into RunLive. The zero value is CmdSubmit, so a Command built
// from a bare submission record is a submission.
type CommandKind uint8

const (
	// CmdSubmit submits one job; Command.Job holds the record and
	// Command.Time must equal its SubmitTime.
	CmdSubmit CommandKind = iota
	// CmdCancel removes the job with Command.ID from the system at
	// Command.Time — before submission, from the queue, or killing it
	// mid-run — with exactly the scenario-cancellation semantics.
	CmdCancel
	// CmdDrain gracefully takes Command.Procs processors out of
	// service at Command.Time.
	CmdDrain
	// CmdRestore returns Command.Procs processors to service at
	// Command.Time.
	CmdRestore
	// CmdAdvance carries no operation; it is the source's promise that
	// no later command will carry a Time below Command.Time, which
	// lets the loop process queued events strictly before that instant
	// without blocking for the next command. Real-time daemons emit
	// these as the wall clock advances.
	CmdAdvance
)

// String names the command kind for errors and logs.
func (k CommandKind) String() string {
	switch k {
	case CmdSubmit:
		return "submit"
	case CmdCancel:
		return "cancel"
	case CmdDrain:
		return "drain"
	case CmdRestore:
		return "restore"
	case CmdAdvance:
		return "advance"
	}
	return fmt.Sprintf("commandkind(%d)", uint8(k))
}

// Command is one timed operation of a live run: the union of a job
// submission, a cancellation, a capacity change, and a clock promise.
// Use the constructors; they keep the per-kind field invariants.
type Command struct {
	Kind CommandKind
	// Time is the virtual instant the command takes effect. A
	// CommandSource must yield commands in nondecreasing Time order.
	Time int64
	// Job is the submission record (CmdSubmit only).
	Job swf.Job
	// ID is the cancellation target (CmdCancel only).
	ID int64
	// Procs is the capacity delta (CmdDrain/CmdRestore only).
	Procs int64
}

// SubmitCommand submits rec at its own SubmitTime.
func SubmitCommand(rec swf.Job) Command {
	return Command{Kind: CmdSubmit, Time: rec.SubmitTime, Job: rec}
}

// CancelCommand removes job id at instant t.
func CancelCommand(t, id int64) Command {
	return Command{Kind: CmdCancel, Time: t, ID: id}
}

// DrainCommand takes procs processors out of service at instant t.
func DrainCommand(t, procs int64) Command {
	return Command{Kind: CmdDrain, Time: t, Procs: procs}
}

// RestoreCommand returns procs processors to service at instant t.
func RestoreCommand(t, procs int64) Command {
	return Command{Kind: CmdRestore, Time: t, Procs: procs}
}

// AdvanceCommand promises that no later command carries a Time below t.
func AdvanceCommand(t int64) Command {
	return Command{Kind: CmdAdvance, Time: t}
}

// CommandSource feeds the event loop. NextCommand blocks until the next
// command is available and returns io.EOF to close the intake — the
// run then drains every queued event to completion and returns. RunLive
// takes one directly: the channel-backed sequencer in internal/schedd
// is the production implementation, and SliceCommands replays a
// recorded log. The other entry points adapt their input to one.
type CommandSource interface {
	NextCommand() (Command, error)
}

// SliceCommands is a CommandSource over a fixed, already-ordered
// command slice: the replay path what-if projections and the
// differential tests run through.
type SliceCommands struct {
	cmds []Command
	i    int
}

// NewSliceCommands wraps cmds (not copied; the caller must not mutate).
func NewSliceCommands(cmds []Command) *SliceCommands {
	return &SliceCommands{cmds: cmds}
}

// NextCommand implements CommandSource.
func (s *SliceCommands) NextCommand() (Command, error) {
	if s.i >= len(s.cmds) {
		return Command{}, io.EOF
	}
	c := s.cmds[s.i]
	s.i++
	return c, nil
}

// RunLive runs the event loop under an open-ended, externally produced
// command stream instead of a preloaded script and a submission source.
// It exists for the scheduler-as-a-service daemon (internal/schedd):
// submissions, cancellations and capacity changes arrive as timed
// commands from concurrent clients (already sequenced into one
// nondecreasing-time stream), and CmdAdvance promises let the loop
// retire queued events between arrivals without blocking on the next
// command. Capacity commands target the single machine.
//
// The loop is RunStream's (see run): a command sequence derived from
// (trace, script) produces byte-identical decisions, counters and sink
// observations to RunStream over the same trace — the property
// live_diff_test.go and internal/schedd's replay_diff_test.go enforce.
// When the source returns io.EOF the intake closes and the queue
// drains to completion (the daemon's graceful shutdown).
//
// Cancellation semantics are RunStream's: a cancel command for a job
// already admitted binds its live pointer; one for a job not yet
// submitted marks the ID so the later submission is dropped on
// arrival. The sole divergence, the live analogue of RunStream's
// absent-ID exception: a cancel naming a job that retired before any
// cancellation named it (or that never arrives) cannot be told apart
// from a cancel-before-submission, so it pops as one — a benign extra
// scheduling pass against unchanged state; decisions and metrics are
// unaffected. Memory is O(live jobs + cancellations): the ID index
// holds every live job, and a canceled ID keeps its entry for the rest
// of the run.
func RunLive(name string, maxProcs int64, src CommandSource, cfg Config) (*Result, error) {
	if src == nil {
		return nil, fmt.Errorf("sim: live %q: nil command source", name)
	}
	if !cfg.Script.Empty() {
		return nil, fmt.Errorf("sim: live %q: disruptions arrive as commands, not a Script", name)
	}
	e, err := cfg.single(name, maxProcs)
	if err != nil {
		return nil, err
	}
	e.res.Streamed = true
	e.arena = new(job.Arena)
	e.ids = make(map[int64]*idEntry)
	e.indexLive = true
	return e.run(src)
}
