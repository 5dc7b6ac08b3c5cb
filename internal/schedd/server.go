package schedd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"repro/internal/obs"
	"repro/internal/swf"
)

// maxBodyBytes bounds every request body; the largest legitimate
// request is a what-if script, far below this.
const maxBodyBytes = 1 << 20

// streamChunk is the size at which the event stream writes out a batch
// it is still encoding.
const streamChunk = 64 << 10

// JobSpec is the wire form of a submission: the SWF fields a live
// client states. Runtime is the simulated job's actual running time —
// the oracle the event core needs to schedule its finish; a real
// deployment would learn it at completion instead.
type JobSpec struct {
	Number  int64 `json:"number"`
	Submit  int64 `json:"submit"`
	Procs   int64 `json:"procs"`
	Request int64 `json:"request"`
	Runtime int64 `json:"runtime"`
	User    int64 `json:"user,omitempty"`
	// Partition overrides the session's client stamp (1-based client
	// index; 0 means inherit).
	Partition int64 `json:"partition,omitempty"`
}

func (s *JobSpec) record() swf.Job {
	return swf.Job{
		JobNumber:      s.Number,
		SubmitTime:     s.Submit,
		RunTime:        s.Runtime,
		AllocatedProcs: s.Procs,
		RequestedProcs: s.Procs,
		RequestedTime:  s.Request,
		UserID:         s.User,
		Partition:      s.Partition,
	}
}

// SubmitRequest is the POST /v1/jobs body.
type SubmitRequest struct {
	Session string  `json:"session"`
	Job     JobSpec `json:"job"`
}

type sessionRequest struct {
	Session string `json:"session"`
	Client  string `json:"client,omitempty"`
}

type cancelRequest struct {
	Session string `json:"session"`
	T       int64  `json:"t"`
	Job     int64  `json:"job"`
}

type capacityRequest struct {
	Session string `json:"session"`
	T       int64  `json:"t"`
	Procs   int64  `json:"procs"`
}

type advanceRequest struct {
	Session string `json:"session"`
	T       int64  `json:"t"`
}

type whatIfRequest struct {
	Events []WhatIfEvent `json:"events"`
}

// decodeStrict decodes one JSON value from r, rejecting unknown
// fields, trailing data, and oversized bodies — the contract
// FuzzSubmitRequest pins on the submission decoder.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(io.LimitReader(r, maxBodyBytes+1))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return errf(http.StatusBadRequest, "schedd: bad request body: %v", err)
	}
	if dec.More() {
		return errf(http.StatusBadRequest, "schedd: trailing data after request body")
	}
	return nil
}

// ParseSubmitRequest decodes and validates a POST /v1/jobs body: the
// fuzz entry point. A nil error means the request would enqueue
// (session permitting): positive job number, width, and requested
// time, nonnegative instants. A body of the canonical shape
// (parseCanonical) is decoded without encoding/json; every other body
// goes to decodeStrict, so both paths accept the same bodies and fail
// with the same errors, which FuzzSubmitRequest pins.
func ParseSubmitRequest(body []byte) (*SubmitRequest, error) {
	req := new(SubmitRequest)
	if len(body) > maxBodyBytes || !parseCanonical(body, req) {
		*req = SubmitRequest{}
		if err := decodeStrict(bytes.NewReader(body), req); err != nil {
			return nil, err
		}
	}
	if err := req.validate(); err != nil {
		return nil, err
	}
	return req, nil
}

// validate checks a decoded submission's values.
func (req *SubmitRequest) validate() error {
	if req.Session == "" {
		return errf(http.StatusBadRequest, "schedd: submit without a session")
	}
	j := &req.Job
	if j.Number <= 0 {
		return errf(http.StatusBadRequest, "schedd: job number %d must be positive", j.Number)
	}
	if j.Procs <= 0 {
		return errf(http.StatusBadRequest, "schedd: job %d requests %d processors", j.Number, j.Procs)
	}
	if j.Request <= 0 {
		return errf(http.StatusBadRequest, "schedd: job %d has no requested time", j.Number)
	}
	if j.Runtime < 0 {
		return errf(http.StatusBadRequest, "schedd: job %d has negative runtime %d", j.Number, j.Runtime)
	}
	if j.Submit < 0 {
		return errf(http.StatusBadRequest, "schedd: job %d submits at negative instant %d", j.Number, j.Submit)
	}
	if j.Partition < 0 {
		return errf(http.StatusBadRequest, "schedd: job %d has negative partition %d", j.Number, j.Partition)
	}
	return nil
}

// parseCanonical decodes a submission body of exactly the shape
// json.Marshal(SubmitRequest), `schedd -replay` and perfbench's client
// write, with no whitespace anywhere:
//
//	{"session":"S","job":{"number":N,"submit":N,"procs":N,"request":N,"runtime":N[,"user":N][,"partition":N]}}
//
// where S is printable ASCII without '"' or '\\', and N matches
// -?(0|[1-9][0-9]{0,17}), which cannot overflow an int64. It reports
// false for any other body, which the caller hands to decodeStrict.
func parseCanonical(b []byte, req *SubmitRequest) bool {
	rest, ok := bytes.CutPrefix(b, []byte(`{"session":"`))
	if !ok {
		return false
	}
	i := 0
	for ; i < len(rest) && rest[i] != '"'; i++ {
		if c := rest[i]; c < 0x20 || c > 0x7e || c == '\\' {
			return false
		}
	}
	if i == len(rest) {
		return false
	}
	session := rest[:i]
	p := wireCursor{rest[i+1:]}
	j := &req.Job
	if !p.field(`,"job":{"number":`, &j.Number) || !p.field(`,"submit":`, &j.Submit) ||
		!p.field(`,"procs":`, &j.Procs) || !p.field(`,"request":`, &j.Request) ||
		!p.field(`,"runtime":`, &j.Runtime) {
		return false
	}
	if p.lit(`,"user":`) && !p.int(&j.User) {
		return false
	}
	if p.lit(`,"partition":`) && !p.int(&j.Partition) {
		return false
	}
	if string(p.b) != "}}" {
		return false
	}
	req.Session = string(session)
	return true
}

// wireCursor walks a canonical submission body.
type wireCursor struct{ b []byte }

// lit consumes s if the body continues with it.
func (p *wireCursor) lit(s string) bool {
	if len(p.b) < len(s) || string(p.b[:len(s)]) != s {
		return false
	}
	p.b = p.b[len(s):]
	return true
}

// field consumes the key literal and then an integer into dst.
func (p *wireCursor) field(key string, dst *int64) bool {
	return p.lit(key) && p.int(dst)
}

// int consumes -?(0|[1-9][0-9]{0,17}) into dst.
func (p *wireCursor) int(dst *int64) bool {
	b := p.b
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	n := 0
	var v int64
	for ; n < len(b) && n <= 18 && '0' <= b[n] && b[n] <= '9'; n++ {
		v = v*10 + int64(b[n]-'0')
	}
	if n == 0 || n > 18 || (n > 1 && b[0] == '0') {
		return false
	}
	if neg {
		v = -v
	}
	*dst = v
	p.b = b[n:]
	return true
}

// writeError renders an error on the wire: typed *Error with its
// status, anything else as a 500.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var api *Error
	if errors.As(err, &api) {
		status = api.Status
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// okBody is every successful POST's reply: the bytes
// json.NewEncoder(w).Encode(map[string]bool{"ok": true}) writes.
var okBody = []byte("{\"ok\":true}\n")

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// Handler returns the daemon's HTTP surface. All state lives in the
// daemon; the handler is stateless and safe for concurrent use.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()

	post := func(pattern string, fn func(body []byte) error) {
		mux.HandleFunc("POST "+pattern, func(w http.ResponseWriter, r *http.Request) {
			body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
			if err != nil {
				writeError(w, errf(http.StatusRequestEntityTooLarge, "schedd: %v", err))
				return
			}
			if err := fn(body); err != nil {
				writeError(w, err)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Write(okBody)
		})
	}

	post("/v1/sessions", func(body []byte) error {
		var req sessionRequest
		if err := decodeStrict(bytes.NewReader(body), &req); err != nil {
			return err
		}
		return d.OpenSession(req.Session, req.Client)
	})
	post("/v1/sessions/close", func(body []byte) error {
		var req sessionRequest
		if err := decodeStrict(bytes.NewReader(body), &req); err != nil {
			return err
		}
		return d.CloseSession(req.Session)
	})
	post("/v1/jobs", func(body []byte) error {
		req, err := ParseSubmitRequest(body)
		if err != nil {
			return err
		}
		return d.Submit(req.Session, req.Job.record())
	})
	post("/v1/cancel", func(body []byte) error {
		var req cancelRequest
		if err := decodeStrict(bytes.NewReader(body), &req); err != nil {
			return err
		}
		return d.Cancel(req.Session, req.T, req.Job)
	})
	post("/v1/drain", func(body []byte) error {
		var req capacityRequest
		if err := decodeStrict(bytes.NewReader(body), &req); err != nil {
			return err
		}
		return d.Drain(req.Session, req.T, req.Procs)
	})
	post("/v1/restore", func(body []byte) error {
		var req capacityRequest
		if err := decodeStrict(bytes.NewReader(body), &req); err != nil {
			return err
		}
		return d.Restore(req.Session, req.T, req.Procs)
	})
	post("/v1/advance", func(body []byte) error {
		var req advanceRequest
		if err := decodeStrict(bytes.NewReader(body), &req); err != nil {
			return err
		}
		return d.Advance(req.Session, req.T)
	})

	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, d.Metrics())
	})

	mux.HandleFunc("GET /v1/status", func(w http.ResponseWriter, r *http.Request) {
		watermark, open, draining := d.seq.snapshot()
		writeJSON(w, map[string]any{
			"workload":  d.opts.Workload,
			"triple":    d.opts.Triple.Name(),
			"max_procs": d.opts.MaxProcs,
			"scale":     d.opts.Scale,
			"watermark": watermark,
			"sessions":  open,
			"draining":  draining,
		})
	})

	mux.HandleFunc("POST /v1/whatif", func(w http.ResponseWriter, r *http.Request) {
		var req whatIfRequest
		if err := decodeStrict(http.MaxBytesReader(w, r.Body, maxBodyBytes), &req); err != nil {
			writeError(w, err)
			return
		}
		proj, err := d.WhatIf(req.Events)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, proj)
	})

	mux.HandleFunc("GET /v1/events", func(w http.ResponseWriter, r *http.Request) {
		d.serveEvents(w, r)
	})

	mux.HandleFunc("POST /v1/shutdown", func(w http.ResponseWriter, r *http.Request) {
		res, err := d.Shutdown()
		if err != nil {
			writeError(w, errf(http.StatusInternalServerError, "schedd: run failed: %v", err))
			return
		}
		writeJSON(w, map[string]any{
			"finished":    res.Finished,
			"canceled":    res.Canceled,
			"makespan":    res.Makespan,
			"corrections": res.Corrections,
			"metrics":     d.Metrics(),
		})
	})

	return mux
}

// serveEvents streams flight-recorder events live: JSONL by default
// (one obs.Event per line, the schema cmd/tracestat reads), or SSE
// ("data: <event-json>" frames) when the client asks for
// text/event-stream. The stream ends when the engine exits or the
// client disconnects.
func (d *Daemon) serveEvents(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, errf(http.StatusNotImplemented, "schedd: event stream needs a flushing writer"))
		return
	}
	sse := r.Header.Get("Accept") == "text/event-stream"
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-store")

	// Subscribe before the response headers go out: a client that has
	// seen the 200 is guaranteed to observe every event from then on.
	sub := d.hub.subscribe()
	stop := context.AfterFunc(r.Context(), func() { d.hub.unsubscribe(sub) })
	defer stop()
	defer d.hub.unsubscribe(sub)

	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	// Each batch is encoded into buf, written once and flushed once; buf
	// is written early whenever it passes streamChunk bytes, so a burst
	// does not grow it without bound.
	var buf []byte
	for {
		batch, ok := sub.Next()
		if !ok {
			return
		}
		buf = buf[:0]
		for i := range batch {
			mark := len(buf)
			if sse {
				buf = append(buf, "data: "...)
			}
			line, err := obs.AppendLine(buf, &batch[i])
			if err != nil {
				w.Write(buf[:mark])
				return
			}
			buf = line
			if sse {
				buf = append(buf, '\n')
			}
			if len(buf) >= streamChunk {
				if _, err := w.Write(buf); err != nil {
					return
				}
				buf = buf[:0]
			}
		}
		if _, err := w.Write(buf); err != nil {
			return
		}
		flusher.Flush()
	}
}
