package schedd

import (
	"sync"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// commandLog records every command the sequencer emitted, in engine
// order — the daemon's replayable history. A what-if projection forks
// the run by replaying a snapshot of this log (plus the hypothetical
// events) through a fresh engine with fresh policy sessions, which by
// the determinism invariant reproduces the live engine's state exactly
// without touching it. Memory is O(history): one Command per emitted
// command, advances excluded (a replay needs no pacing).
type commandLog struct {
	mu   sync.Mutex
	cmds []sim.Command
}

func (l *commandLog) append(cmd *sim.Command) {
	if cmd.Kind == sim.CmdAdvance {
		return
	}
	l.mu.Lock()
	l.cmds = append(l.cmds, *cmd)
	l.mu.Unlock()
}

// snapshot copies the history so replay never races ongoing appends.
func (l *commandLog) snapshot() []sim.Command {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]sim.Command(nil), l.cmds...)
}

// loggingSource interposes on the sequencer: every command the engine
// pulls is recorded before it is applied, so the log is exactly the
// engine's input in engine order.
type loggingSource struct {
	next sim.CommandSource
	log  *commandLog
}

func (s *loggingSource) NextCommand(cmd *sim.Command) error {
	err := s.next.NextCommand(cmd)
	if err == nil {
		s.log.append(cmd)
	}
	return err
}

// WhatIfEvent is one hypothetical disruption of a projection: a drain,
// restore, or cancellation at a stated instant.
type WhatIfEvent struct {
	// Kind is "drain", "restore" or "cancel".
	Kind string `json:"kind"`
	// T is the virtual instant of the hypothetical event.
	T int64 `json:"t"`
	// Procs is the capacity delta (drain/restore).
	Procs int64 `json:"procs,omitempty"`
	// Job is the cancellation target (cancel).
	Job int64 `json:"job,omitempty"`
}

// Projection is a what-if answer: the completed hypothetical run's
// headline metrics.
type Projection struct {
	Workload    string  `json:"workload"`
	Triple      string  `json:"triple"`
	Finished    int     `json:"finished"`
	Canceled    int     `json:"canceled"`
	AVEbsld     float64 `json:"avebsld"`
	MaxBsld     float64 `json:"max_bsld"`
	MeanWait    float64 `json:"mean_wait"`
	Utilization float64 `json:"utilization"`
	Makespan    int64   `json:"makespan"`
	// Commands is how much history the projection replayed.
	Commands int `json:"commands"`
}

// lower turns a hypothetical event into a command.
func (ev *WhatIfEvent) lower() (sim.Command, error) {
	if ev.T < 0 {
		return sim.Command{}, errf(400, "schedd: what-if %s at negative instant %d", ev.Kind, ev.T)
	}
	switch ev.Kind {
	case "drain":
		if ev.Procs <= 0 {
			return sim.Command{}, errf(400, "schedd: what-if drain of %d processors", ev.Procs)
		}
		return sim.DrainCommand(ev.T, ev.Procs), nil
	case "restore":
		if ev.Procs <= 0 {
			return sim.Command{}, errf(400, "schedd: what-if restore of %d processors", ev.Procs)
		}
		return sim.RestoreCommand(ev.T, ev.Procs), nil
	case "cancel":
		if ev.Job <= 0 {
			return sim.Command{}, errf(400, "schedd: what-if cancel of job %d", ev.Job)
		}
		return sim.CancelCommand(ev.T, ev.Job), nil
	}
	return sim.Command{}, errf(400, "schedd: unknown what-if event kind %q", ev.Kind)
}

// mergeCommands interleaves the hypothetical commands (already sorted
// by the caller) into the base history by the deterministic command
// order, base first on full ties so the hypothesis perturbs the
// recorded schedule as little as possible.
func mergeCommands(base, hyp []sim.Command) []sim.Command {
	out := make([]sim.Command, 0, len(base)+len(hyp))
	i, j := 0, 0
	for i < len(base) && j < len(hyp) {
		if cmdLess(&hyp[j], &base[i], "", "") {
			out = append(out, hyp[j])
			j++
		} else {
			out = append(out, base[i])
			i++
		}
	}
	out = append(out, base[i:]...)
	out = append(out, hyp[j:]...)
	return out
}

// WhatIf projects the run's outcome under hypothetical events: it
// replays the command history so far, merged with the hypothesis,
// through a fresh engine and fresh policy sessions, and reports the
// projected metrics. The live engine is untouched — the projection
// shares no mutable state with it (whatif_test.go proves the live
// counters and trace are bit-identical before and after). An empty
// hypothesis projects the live run's own completion.
func (d *Daemon) WhatIf(events []WhatIfEvent) (*Projection, error) {
	hyp := make([]sim.Command, 0, len(events))
	for i := range events {
		cmd, err := events[i].lower()
		if err != nil {
			return nil, err
		}
		hyp = append(hyp, cmd)
	}
	for i := 1; i < len(hyp); i++ {
		if cmdLess(&hyp[i], &hyp[i-1], "", "") {
			return nil, errf(400, "schedd: what-if events out of order: %s at %d after %d", hyp[i].Kind, hyp[i].Time, hyp[i-1].Time)
		}
	}
	base := d.log.snapshot()
	merged := mergeCommands(base, hyp)

	cfg := d.opts.Triple.Config()
	coll := metrics.NewCollector()
	cfg.Sink = coll
	res, err := sim.RunLive(d.opts.Workload+"+whatif", d.opts.MaxProcs, sim.NewSliceCommands(merged), cfg)
	if err != nil {
		return nil, errf(422, "schedd: what-if replay: %v", err)
	}
	return &Projection{
		Workload:    res.Workload,
		Triple:      res.Triple,
		Finished:    coll.Finished(),
		Canceled:    res.Canceled,
		AVEbsld:     coll.AVEbsld(),
		MaxBsld:     coll.MaxBsld(),
		MeanWait:    coll.MeanWait(),
		Utilization: coll.Utilization(res.Makespan, d.opts.MaxProcs),
		Makespan:    res.Makespan,
		Commands:    len(base),
	}, nil
}
