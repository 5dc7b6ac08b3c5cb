// Package obs is the simulator's flight recorder: structured tracing of
// every scheduling decision plus per-stage latency profiling, designed
// so that observation can never perturb the system it observes.
//
// A Tracer receives one Event per decision in the lifecycle of a job —
// submission, routing (with the candidate set the router chose from),
// every policy Pick (including declines, with the machine context the
// decision saw), start, finish (predicted-vs-actual runtime and the
// job's bounded slowdown, the raw material of the calibrate loop),
// cancellation, prediction correction — and per capacity change. Events
// are written as JSONL through internal/journal's atomic append writer,
// so concurrent campaign cells can share one trace file without
// interleaving bytes within a line.
//
// The contract the differential tests enforce: tracing is observation
// only. A traced run makes byte-identical decisions, counters and
// capacity timelines to an untraced one, and a nil Tracer costs nothing
// on the hot path (the zero-alloc Pick baselines in BENCH_baseline.json
// hold with tracing compiled in).
package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"sync"

	"repro/internal/journal"
)

// Event kinds, one per decision point in the engine. ValidateEvent
// rejects anything else.
const (
	KindSubmit   = "submit"   // job entered the system (post-routing)
	KindRoute    = "route"    // router dispatched a job to a cluster
	KindPick     = "pick"     // one policy Pick call, chosen job or decline
	KindStart    = "start"    // job began running
	KindFinish   = "finish"   // job completed (normally or killed)
	KindCancel   = "cancel"   // scenario cancellation removed a job
	KindCapacity = "capacity" // in-service or eventual capacity changed
	KindCorrect  = "correct"  // prediction-expiry correction
)

// Event is one flight-recorder record. A single flat struct covers
// every kind; fields irrelevant to a kind stay zero and are omitted
// from the JSON line. T is simulation time (seconds since the trace
// epoch), never wall clock, so traces are reproducible.
type Event struct {
	// T is the simulation instant of the decision.
	T int64 `json:"t"`
	// Kind is one of the Kind* constants.
	Kind string `json:"kind"`
	// Workload and Triple tag the originating run; campaign grids stamp
	// them (via Tagged) so concurrent cells sharing one file stay
	// attributable.
	Workload string `json:"workload,omitempty"`
	Triple   string `json:"triple,omitempty"`
	// Job is the SWF job number of the subject job.
	Job int64 `json:"job,omitempty"`
	// Cluster names the affected cluster; empty on single-machine runs.
	Cluster string `json:"cluster,omitempty"`
	// Procs is the job's width (submit), or the drained/restored
	// processor count (capacity).
	Procs int64 `json:"procs,omitempty"`
	// Request is the job's requested (kill-bound) runtime.
	Request int64 `json:"request,omitempty"`
	// Prediction is the current runtime prediction: the submit-time
	// estimate on submit events, the corrected estimate on correct
	// events.
	Prediction int64 `json:"prediction,omitempty"`
	// Router and Eligible describe a routing decision: the policy's name
	// and the candidate clusters it was allowed to choose from (Cluster
	// holds its choice).
	Router   string   `json:"router,omitempty"`
	Eligible []string `json:"eligible,omitempty"`
	// Policy names the deciding policy of a pick event.
	Policy string `json:"policy,omitempty"`
	// Picked is the job the policy chose; 0 means it declined to start
	// anything at this instant.
	Picked int64 `json:"picked,omitempty"`
	// QueueLen, Free and Eventual are the decision context of a pick:
	// waiting jobs, free processors, and eventual capacity (nominal
	// minus pending drains — what shadow reservations plan against).
	QueueLen int   `json:"queue_len,omitempty"`
	Free     int64 `json:"free,omitempty"`
	Eventual int64 `json:"eventual,omitempty"`
	// Nanos is the wall-clock latency of the decision (pick events).
	// Unlike everything else it is nondeterministic; consumers that
	// diff traces must ignore it (the differential tests strip it).
	Nanos int64 `json:"ns,omitempty"`
	// Wait is the job's queueing delay (start events).
	Wait int64 `json:"wait,omitempty"`
	// Runtime, Predicted, PredErr and Bsld describe a finish: realized
	// runtime, the submit-time prediction, Predicted-Runtime, and the
	// job's bounded slowdown.
	Runtime   int64   `json:"runtime,omitempty"`
	Predicted int64   `json:"predicted,omitempty"`
	PredErr   int64   `json:"pred_err,omitempty"`
	Bsld      float64 `json:"bsld,omitempty"`
	// Corrections is the job's prediction-correction count so far.
	Corrections int `json:"corrections,omitempty"`
	// Capacity and (for capacity events) Eventual give the cluster's
	// in-service and eventual processor counts after a change.
	Capacity int64 `json:"capacity,omitempty"`
	// Started marks a cancellation that killed a running job (rather
	// than removing a waiting or unsubmitted one).
	Started bool `json:"started,omitempty"`
}

// Tracer receives flight-recorder events. Implementations must be safe
// for concurrent use when shared across campaign cells, and must not
// retain ev past the call — the engine reuses the backing storage.
type Tracer interface {
	Trace(ev *Event)
}

// Tagged wraps a Tracer, stamping every event with a workload and
// triple label before forwarding. Campaign grids wrap the shared file
// tracer once per cell so interleaved events stay attributable.
type Tagged struct {
	Tracer   Tracer
	Workload string
	Triple   string
}

// Trace implements Tracer.
func (t Tagged) Trace(ev *Event) {
	ev.Workload, ev.Triple = t.Workload, t.Triple
	t.Tracer.Trace(ev)
}

// JSONL writes events as JSON lines through the journal package's
// atomic append writer: one write(2) per event, mutex-serialized, so
// concurrent simulations can share a file. Append errors are sticky —
// the first one is reported by Err and Close rather than interrupting
// the simulation mid-run.
type JSONL struct {
	w *journal.Writer[Event]

	mu  sync.Mutex
	err error
}

// OpenJSONL opens (creating or appending to) a JSONL trace at path.
func OpenJSONL(path string) (*JSONL, error) {
	w, err := journal.OpenWriter[Event](path)
	if err != nil {
		return nil, err
	}
	return &JSONL{w: w}, nil
}

// Trace implements Tracer.
func (l *JSONL) Trace(ev *Event) {
	if err := l.w.Append(*ev); err != nil {
		l.mu.Lock()
		if l.err == nil {
			l.err = err
		}
		l.mu.Unlock()
	}
}

// Err returns the first append error, if any.
func (l *JSONL) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Path returns the trace file path.
func (l *JSONL) Path() string { return l.w.Path() }

// Close flushes and closes the trace, returning the first append error
// if one occurred.
func (l *JSONL) Close() error {
	cerr := l.w.Close()
	if err := l.Err(); err != nil {
		return err
	}
	return cerr
}

// Collector is an in-memory Tracer for tests: it records every event,
// concurrency-safe.
type Collector struct {
	mu     sync.Mutex
	events []Event
}

// Trace implements Tracer.
func (c *Collector) Trace(ev *Event) {
	cp := *ev
	if len(ev.Eligible) > 0 {
		// The engine reuses the candidate-set buffer across routes.
		cp.Eligible = append([]string(nil), ev.Eligible...)
	}
	c.mu.Lock()
	c.events = append(c.events, cp)
	c.mu.Unlock()
}

// Events returns a copy of everything recorded so far.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// validKinds is the closed vocabulary ValidateEvent accepts.
var validKinds = map[string]bool{
	KindSubmit: true, KindRoute: true, KindPick: true, KindStart: true,
	KindFinish: true, KindCancel: true, KindCapacity: true, KindCorrect: true,
}

// ValidateEvent checks an event against the trace schema: a known kind,
// a nonnegative instant, and the identity fields that kind cannot omit.
// It is the contract cmd/tracestat -check and the CI trace smoke
// enforce on every emitted line.
func ValidateEvent(ev *Event) error {
	if !validKinds[ev.Kind] {
		return fmt.Errorf("obs: unknown event kind %q", ev.Kind)
	}
	if ev.T < 0 {
		return fmt.Errorf("obs: %s event at negative instant %d", ev.Kind, ev.T)
	}
	switch ev.Kind {
	case KindSubmit, KindStart, KindFinish, KindCancel, KindCorrect:
		if ev.Job <= 0 {
			return fmt.Errorf("obs: %s event without a job id", ev.Kind)
		}
	case KindRoute:
		if ev.Job <= 0 {
			return fmt.Errorf("obs: route event without a job id")
		}
		if ev.Router == "" {
			return fmt.Errorf("obs: route event without a router name")
		}
		if ev.Cluster == "" {
			return fmt.Errorf("obs: route event without a destination cluster")
		}
	case KindPick:
		if ev.Policy == "" {
			return fmt.Errorf("obs: pick event without a policy name")
		}
	}
	switch ev.Kind {
	case KindSubmit:
		if ev.Procs <= 0 {
			return fmt.Errorf("obs: submit event for job %d without a width", ev.Job)
		}
	case KindFinish:
		if ev.Runtime < 0 {
			return fmt.Errorf("obs: finish event for job %d with negative runtime %d", ev.Job, ev.Runtime)
		}
		if ev.Bsld < 1 {
			return fmt.Errorf("obs: finish event for job %d with bounded slowdown %g < 1", ev.Job, ev.Bsld)
		}
	}
	return nil
}

// AppendLine appends ev to dst as one JSONL line: the bytes
// json.Marshal(ev) returns, then a newline. The live event stream
// (internal/schedd) encodes with it, so a streamed event costs no
// reflection and daemon output round-trips through cmd/tracestat's
// reader; FuzzEventStream holds the two encodings byte-equal. The file
// tracer (JSONL) keeps encoding/json.
//
// Fields go in struct order under their omitempty rules: t and kind
// always, every other field only when it is non-zero. A NaN or infinite
// Bsld has no JSON form; AppendLine then returns dst unchanged and an
// error, where json.Marshal fails too.
func AppendLine(dst []byte, ev *Event) ([]byte, error) {
	if math.IsNaN(ev.Bsld) || math.IsInf(ev.Bsld, 0) {
		return dst, fmt.Errorf("obs: marshal %s event: unsupported bsld %v", ev.Kind, ev.Bsld)
	}
	b := append(dst, `{"t":`...)
	b = strconv.AppendInt(b, ev.T, 10)
	b = append(b, `,"kind":`...)
	b = appendString(b, ev.Kind)
	b = appendStringField(b, `,"workload":`, ev.Workload)
	b = appendStringField(b, `,"triple":`, ev.Triple)
	b = appendIntField(b, `,"job":`, ev.Job)
	b = appendStringField(b, `,"cluster":`, ev.Cluster)
	b = appendIntField(b, `,"procs":`, ev.Procs)
	b = appendIntField(b, `,"request":`, ev.Request)
	b = appendIntField(b, `,"prediction":`, ev.Prediction)
	b = appendStringField(b, `,"router":`, ev.Router)
	if len(ev.Eligible) > 0 {
		b = append(b, `,"eligible":[`...)
		for i, s := range ev.Eligible {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, s)
		}
		b = append(b, ']')
	}
	b = appendStringField(b, `,"policy":`, ev.Policy)
	b = appendIntField(b, `,"picked":`, ev.Picked)
	b = appendIntField(b, `,"queue_len":`, int64(ev.QueueLen))
	b = appendIntField(b, `,"free":`, ev.Free)
	b = appendIntField(b, `,"eventual":`, ev.Eventual)
	b = appendIntField(b, `,"ns":`, ev.Nanos)
	b = appendIntField(b, `,"wait":`, ev.Wait)
	b = appendIntField(b, `,"runtime":`, ev.Runtime)
	b = appendIntField(b, `,"predicted":`, ev.Predicted)
	b = appendIntField(b, `,"pred_err":`, ev.PredErr)
	if ev.Bsld != 0 { // -0 is empty too, as encoding/json has it
		b = append(b, `,"bsld":`...)
		b = appendFloat(b, ev.Bsld)
	}
	b = appendIntField(b, `,"corrections":`, int64(ev.Corrections))
	b = appendIntField(b, `,"capacity":`, ev.Capacity)
	if ev.Started {
		b = append(b, `,"started":true`...)
	}
	return append(b, "}\n"...), nil
}

func appendIntField(b []byte, key string, v int64) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendInt(append(b, key...), v, 10)
}

func appendStringField(b []byte, key, s string) []byte {
	if s == "" {
		return b
	}
	return appendString(append(b, key...), s)
}

// appendString quotes s as encoding/json does. Printable ASCII other
// than the quote, the backslash and the three HTML-escaped bytes is
// copied as is; any other string is appended as json.Marshal renders
// it, so control bytes, invalid UTF-8 and U+2028/U+2029 escape exactly
// as the building toolchain escapes them.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plainJSON[s[i]] {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// plainJSON marks the bytes appendString copies as they are.
var plainJSON = func() (t [256]bool) {
	for c := 0x20; c <= 0x7e; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// appendFloat formats a finite f as encoding/json formats a float64:
// the shortest 'f' form, or the 'e' form with a one-digit negative
// exponent trimmed (e-07 to e-7) when |f| is below 1e-6 or at least
// 1e21.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// ReadFile streams the trace at path line by line, strictly decoding
// each (unknown JSON fields are an error) and calling fn with the line
// number and event. fn returning an error stops the read. The final
// line may be truncated by an interrupted run; like journal.Load, a
// garbled final line is tolerated silently.
func ReadFile(path string, fn func(line int, ev Event) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	defer f.Close()

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev Event
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		if derr := dec.Decode(&ev); derr != nil {
			if !sc.Scan() {
				// Interrupted final append, same tolerance as journal.Load.
				return sc.Err()
			}
			return fmt.Errorf("obs: %s line %d: %w", path, lineNo, derr)
		}
		if err := fn(lineNo, ev); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("obs: read %s: %w", path, err)
	}
	return nil
}

// bsldTau is the bounded-slowdown runtime floor, duplicated from
// metrics.Tau because metrics sits above sim in the import graph; a
// test in internal/metrics pins the two formulas equal.
const bsldTau = 10

// Bsld is the bounded slowdown of a realized (wait, runtime) pair —
// identical to metrics.Bsld, re-stated here so the engine can stamp
// finish events without an import cycle.
func Bsld(wait, runtime int64) float64 {
	den := runtime
	if den < bsldTau {
		den = bsldTau
	}
	v := float64(wait+runtime) / float64(den)
	if v < 1 {
		return 1
	}
	return v
}
