package sim

import (
	"fmt"
	"io"
	"time"

	"repro/internal/eventq"
	"repro/internal/job"
	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/workload"
)

// run is the event loop: the only place the engine pops events. Before
// each pop it tops up commands — everything taking effect at or before
// the next event's instant is applied (its event pushed) first, so
// eventq's same-instant kind order serializes the instant identically
// whichever intake delivered it. It blocks for the next command only
// when the queue cannot safely progress without it: the head sits at or
// past the latest advance promise. With no promises, which is every
// intake but a live one, that is whenever a command is pending. When
// src returns io.EOF the intake closes and the queue drains.
func (e *engine) run(src CommandSource) (*Result, error) {
	var pending Command
	havePending, exhausted := false, false
	for {
		for !exhausted {
			if !havePending {
				if t, ok := e.q.PeekTime(); ok && t < e.cutoff {
					break
				}
				cmd, err := src.NextCommand()
				if err == io.EOF {
					exhausted = true
					break
				}
				if err != nil {
					return nil, fmt.Errorf("sim: %q: %w", e.res.Workload, err)
				}
				pending, havePending = cmd, true
			}
			if t, ok := e.q.PeekTime(); ok && pending.Time > t {
				break
			}
			if err := e.apply(&pending); err != nil {
				return nil, err
			}
			havePending = false
		}
		// After the top-up the queue is empty only once the intake is
		// exhausted: a pending command is applied whenever nothing is
		// queued.
		ev, ok := e.pop()
		if !ok {
			break
		}
		e.res.Perf.Events++
		e.handle(ev)
	}
	return e.finish()
}

// apply turns one command into queued events. It runs when the event
// clock is about to reach the command's instant, so every pushed event
// is in the future.
func (e *engine) apply(cmd *Command) error {
	if cmd.Time < e.lastTime {
		return fmt.Errorf("sim: %q not time-ordered: %s command at %d after %d", e.res.Workload, cmd.Kind, cmd.Time, e.lastTime)
	}
	e.lastTime = cmd.Time
	switch cmd.Kind {
	case CmdSubmit:
		if cmd.Job.SubmitTime != cmd.Time {
			return fmt.Errorf("sim: %q: submit command at %d carries job %d submitting at %d", e.res.Workload, cmd.Time, cmd.Job.JobNumber, cmd.Job.SubmitTime)
		}
		// The arena copies the record into the job's slot; the slot is
		// recycled when the job retires, so a steady-state stream
		// allocates nothing per admission.
		return e.admit(e.arena.New(&cmd.Job))
	case CmdCancel:
		ent := e.ids[cmd.ID]
		if ent == nil {
			ent = &idEntry{}
			e.ids[cmd.ID] = ent
		}
		ent.named = true
		e.q.Push(cmd.Time, eventq.Cancel, payload{id: cmd.ID})
	case CmdDrain, CmdRestore:
		if cmd.Procs <= 0 {
			return fmt.Errorf("sim: %q: %s of %d processors", e.res.Workload, cmd.Kind, cmd.Procs)
		}
		kind := eventq.Drain
		if cmd.Kind == CmdRestore {
			kind = eventq.Restore
		}
		e.q.Push(cmd.Time, kind, payload{procs: cmd.Procs})
	case CmdAdvance:
		e.cutoff = max(e.cutoff, cmd.Time)
	default:
		return fmt.Errorf("sim: %q: unknown command kind %d", e.res.Workload, cmd.Kind)
	}
	return nil
}

// admit schedules an arriving job's submission and binds it in the ID
// index: the one admission every intake shares.
func (e *engine) admit(j *job.Job) error {
	if j.Procs > e.widest {
		return fmt.Errorf("sim: job %d wider (%d) than the widest machine (%d)", j.ID, j.Procs, e.widest)
	}
	if e.ids != nil {
		switch ent := e.ids[j.ID]; {
		case ent == nil:
			if e.indexLive {
				e.ids[j.ID] = &idEntry{j: j, bound: true}
			}
		case !ent.named:
			ent.j = j // a live ID reused while the first holder runs
		case ent.bound:
			return fmt.Errorf("sim: %q: duplicate job id %d targeted by a cancellation", e.res.Workload, j.ID)
		case ent.canceled:
			// Canceled before submission: count it now (the cancel event
			// fired before the job existed) and let the Submit event drop
			// it, as a job canceled while queued would be.
			ent.bound = true
			j.Canceled = true
			e.res.Canceled++
		default:
			ent.bound, ent.j = true, j
		}
	}
	e.q.Push(j.Submit, eventq.Submit, payload{j: j})
	return nil
}

// preload admits every job of w before the loop runs, from one slab: a
// preloading run retains them all on the Result anyway, so allocating
// them individually would only fragment the heap and cost one
// allocation per job. The queue is reserved once for all n submissions
// plus the live jobs' finish and expiry events.
func (e *engine) preload(w *trace.Workload, script *scenario.Script) error {
	e.nameTargets(script)
	slab := make([]job.Job, len(w.Jobs))
	e.res.Jobs = make([]*job.Job, len(w.Jobs))
	e.q.Reserve(len(w.Jobs) + 64)
	for i := range w.Jobs {
		j := &slab[i]
		job.FromSWFInto(j, &w.Jobs[i])
		e.res.Jobs[i] = j
		if err := e.admit(j); err != nil {
			return err
		}
	}
	return e.pushScript(script, true)
}

// nameTargets indexes every ID the script's cancellations name. A
// script without cancellations builds no index.
func (e *engine) nameTargets(script *scenario.Script) {
	if script.Empty() {
		return
	}
	for _, ev := range script.Events {
		if ev.Action != scenario.Cancel || e.ids[ev.JobID] != nil {
			continue
		}
		if e.ids == nil {
			e.ids = make(map[int64]*idEntry)
		}
		e.ids[ev.JobID] = &idEntry{named: true}
	}
}

// pushScript seeds the queue with the script's disruptions, resolving
// cluster names; single-machine runs reject named clusters. Scenario
// events enter the queue up front on every intake, so same-instant
// ordering between same-kind events is script order either way. One
// documented exception separates the intakes: a preloaded run
// (preloaded true) has already admitted its whole trace and drops
// cancellations naming IDs absent from it, which scripts derived from a
// raw log may do; a streamed run cannot know an ID is absent, so those
// pop as benign cancels-before-submission and Perf.Events and
// Perf.PickCalls may exceed the preloaded run's by them.
func (e *engine) pushScript(script *scenario.Script, preloaded bool) error {
	if script.Empty() {
		return nil
	}
	e.res.Scenario = script.Name
	for _, ev := range script.Events {
		switch {
		case ev.Time < 0:
			return fmt.Errorf("sim: scenario event at negative instant %d", ev.Time)
		case ev.Cluster != "" && e.router == nil:
			return fmt.Errorf("sim: scenario targets cluster %q but the run is single-machine (use RunFederated)", ev.Cluster)
		case (ev.Action == scenario.Drain || ev.Action == scenario.Restore) && ev.Procs > 0:
			ci, err := e.clusterIndex(ev.Cluster)
			if err != nil {
				return err
			}
			kind := eventq.Drain
			if ev.Action == scenario.Restore {
				kind = eventq.Restore
			}
			e.q.Push(ev.Time, kind, payload{procs: ev.Procs, cluster: ci})
		case ev.Action == scenario.Cancel:
			if !preloaded || e.ids[ev.JobID].bound {
				e.q.Push(ev.Time, eventq.Cancel, payload{id: ev.JobID})
			}
		default:
			return fmt.Errorf("sim: scenario %s event with %d processors", ev.Action, ev.Procs)
		}
	}
	return nil
}

// clusterIndex resolves a scenario event's cluster name against the
// engine's platform. Empty names mean the first cluster, so
// single-machine scripts replay unchanged on a federation's head.
func (e *engine) clusterIndex(name string) (int, error) {
	if name == "" {
		return 0, nil
	}
	for i, c := range e.clusters {
		if c.name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("sim: scenario targets unknown cluster %q", name)
}

// finish is the one end-of-run check and result finish: nothing may be
// left waiting or running once the queue has drained, and a
// single-cluster federation surfaces its sole capacity timeline at the
// Result level, exactly where a single-machine run records it.
func (e *engine) finish() (*Result, error) {
	queued, running := 0, 0
	var first *job.Job
	for _, c := range e.clusters {
		if first == nil && len(c.queue) > 0 {
			first = c.queue[0]
		}
		queued += len(c.queue)
		running += c.machine.RunningCount()
	}
	if queued != 0 {
		return nil, fmt.Errorf("sim: %d jobs never started (first: %d) — did the scenario restore its drains?", queued, first.ID)
	}
	if running != 0 {
		return nil, fmt.Errorf("sim: %d jobs still running after the event queue drained", running)
	}
	res := e.res
	if len(res.Clusters) == 1 && len(res.Clusters[0].CapacitySteps) > 0 {
		res.CapacitySteps = append([]CapacityStep(nil), res.Clusters[0].CapacitySteps...)
	}
	if e.prof != nil {
		res.Perf.Stages = e.prof.Summaries()
	}
	res.Perf.WallNanos = time.Since(e.start).Nanoseconds()
	return res, nil
}

// streamed prepares a bounded-memory run over src: scenario events are
// queued up front, submissions are pulled as submit commands exactly
// when the event clock reaches them, and finished jobs are handed to
// the sink and recycled, so Result.Jobs stays nil.
func (e *engine) streamed(src workload.Source, script *scenario.Script) (CommandSource, error) {
	if src == nil {
		return nil, fmt.Errorf("sim: stream %q: nil source", e.res.Workload)
	}
	e.res.Streamed = true
	e.arena = new(job.Arena)
	e.nameTargets(script)
	return submitCommands{src}, e.pushScript(script, false)
}

// submitCommands is a workload.Source seen as a stream of submit
// commands with no advance promises.
type submitCommands struct{ src workload.Source }

func (s submitCommands) NextCommand() (Command, error) {
	rec, err := s.src.NextJob()
	if err != nil {
		return Command{}, err
	}
	return SubmitCommand(rec), nil
}

// noCommands is the intake of a preloaded run: every job was admitted
// before the loop started.
type noCommands struct{}

func (noCommands) NextCommand() (Command, error) { return Command{}, io.EOF }
