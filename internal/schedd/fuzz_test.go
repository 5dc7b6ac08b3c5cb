package schedd_test

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/schedd"
)

// FuzzSubmitRequest fuzzes the HTTP submission decoder: it must never
// panic, must reject structurally invalid requests (unknown fields,
// trailing data, out-of-range values) with a typed 400, must agree with
// the reflection path (encoding/json's strict decoder plus the same
// validation) on every input — the same request or the same error text
// — and every accepted request must survive a marshal/parse round trip
// unchanged, so nothing the daemon admits can differ from what the
// client sent.
func FuzzSubmitRequest(f *testing.F) {
	seeds := []string{
		`{"session":"s0","job":{"number":1,"submit":0,"procs":4,"request":600,"runtime":300}}`,
		`{"session":"s1","job":{"number":7,"submit":120,"procs":1,"request":60,"runtime":60,"user":3,"partition":2}}`,
		`{"session":"","job":{"number":1,"procs":1,"request":1}}`,
		`{"session":"s","job":{"number":-1,"procs":1,"request":1}}`,
		`{"session":"s","job":{"number":1,"procs":0,"request":1}}`,
		`{"session":"s","job":{"number":1,"procs":1,"request":1,"submit":-5}}`,
		`{"session":"s","job":{"number":1,"procs":1,"request":1},"extra":true}`,
		`{"session":"s","job":{"number":1,"procs":1,"request":1}}{"again":1}`,
		`{"session":"s","job":{"number":9223372036854775807,"procs":9223372036854775807,"request":1}}`,
		`not json at all`,
		`null`,
		`[]`,
		`{}`,
		``,
		`{"session":"a","job":{"number":12,"submit":3600,"procs":8,"request":7200,"runtime":5000,"user":0}}`,
		`{"session":"b","job":{"number":5,"submit":1,"procs":2,"request":3,"runtime":0,"partition":1}}`,
		`{"session":"s","job":{"number":999999999999999999,"submit":-0,"procs":1,"request":1,"runtime":-999999999999999999}}`,
		`{"session":"s","job":{"number":1000000000000000000,"submit":0,"procs":1,"request":1,"runtime":1}}`,
		`{"session":"s","job":{"number":01,"submit":0,"procs":1,"request":1,"runtime":1}}`,
		`{"session":"s","job":{"number":1.0,"submit":0,"procs":1,"request":1,"runtime":1}}`,
		`{"session":"s","job":{"number":1e3,"submit":0,"procs":1,"request":1,"runtime":1}}`,
		`{"session":"s","job":{"number":1,"submit":0,"procs":1,"request":1,"runtime":1,"partition":1,"user":1}}`,
		`{"session":"s","job":{"number":1,"submit":0,"procs":1,"request":1,"runtime":1,"user":null}}`,
		`{"session":"s","job":{"number":1,"submit":0,"procs":1,"request":1,"runtime":1}} `,
		`{"session":"s","job":{"number":1,"submit":0,"procs":1,"request":1,"runtime":1}}}`,
		`{"session":"s", "job":{"number":1,"submit":0,"procs":1,"request":1,"runtime":1}}`,
		`{"job":{"number":1,"submit":0,"procs":1,"request":1,"runtime":1},"session":"s"}`,
		`{"Session":"s","job":{"number":1,"submit":0,"procs":1,"request":1,"runtime":1}}`,
		`{"session":"s","session":"t","job":{"number":1,"submit":0,"procs":1,"request":1,"runtime":1}}`,
		`{"session":"s\u0041","job":{"number":1,"submit":0,"procs":1,"request":1,"runtime":1}}`,
		"{\"session\":\"s\xff\",\"job\":{\"number\":1,\"submit\":0,\"procs\":1,\"request\":1,\"runtime\":1}}",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := schedd.ParseSubmitRequest(data)
		ref, rerr := schedd.ParseSubmitRequestReflect(data)
		if (err == nil) != (rerr == nil) || err != nil && err.Error() != rerr.Error() {
			t.Fatalf("decoders disagree on %q:\nfast path  %v\nreflection %v", data, err, rerr)
		}
		if err != nil {
			api, ok := err.(*schedd.Error)
			if !ok {
				t.Fatalf("untyped decode error: %v", err)
			}
			if api.Status != 400 {
				t.Fatalf("decode rejection carried status %d: %v", api.Status, err)
			}
			return
		}
		if *req != *ref {
			t.Fatalf("decoders disagree on %q:\nfast path  %+v\nreflection %+v", data, req, ref)
		}
		// Accepted: the validated invariants must actually hold...
		j := req.Job
		if req.Session == "" || j.Number <= 0 || j.Procs <= 0 || j.Request <= 0 ||
			j.Runtime < 0 || j.Submit < 0 || j.Partition < 0 {
			t.Fatalf("accepted an invalid request: %+v", req)
		}
		// ...and the request must round-trip bit-stable.
		re, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		req2, err := schedd.ParseSubmitRequest(re)
		if err != nil {
			t.Fatalf("round trip rejected %s: %v", re, err)
		}
		if *req2 != *req {
			t.Fatalf("round trip changed the request:\nbefore %+v\nafter  %+v", req, req2)
		}
	})
}

// BenchmarkParseSubmitRequest decodes and validates one submission
// body: perfbench's canonical shape, which takes the fast path, and the
// same job with a space after a comma, which goes to encoding/json.
func BenchmarkParseSubmitRequest(b *testing.B) {
	for _, bc := range []struct{ name, body string }{
		{"canonical", `{"session":"a","job":{"number":31337,"submit":86412,"procs":32,"request":18000,"runtime":3692,"user":17}}`},
		{"fallback", `{"session":"a", "job":{"number":31337,"submit":86412,"procs":32,"request":18000,"runtime":3692,"user":17}}`},
	} {
		b.Run(bc.name, func(b *testing.B) {
			body := []byte(bc.body)
			b.ReportAllocs()
			for b.Loop() {
				if _, err := schedd.ParseSubmitRequest(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// FuzzEventStream fuzzes the daemon's event-stream encoding over every
// field of obs.Event. obs.AppendLine, which writes the GET /v1/events
// lines, must produce exactly json.Marshal's bytes plus a newline, and
// fail exactly when json.Marshal does (a NaN or infinite Bsld). Every
// line must then decode through cmd/tracestat's reader (obs.ReadFile,
// strict field checking included) back to the same event. String fields
// take raw fuzz bytes, so JSON escaping of HTML bytes, control
// characters, U+2028 and invalid UTF-8 is on trial too; Eligible is
// split from one string at its commas.
func FuzzEventStream(f *testing.F) {
	seed := func(ev obs.Event) {
		f.Add(ev.T, ev.Kind, ev.Workload, ev.Triple, ev.Job, ev.Cluster, ev.Procs, ev.Request, ev.Prediction,
			ev.Router, strings.Join(ev.Eligible, ","), ev.Policy, ev.Picked, ev.QueueLen, ev.Free, ev.Eventual,
			ev.Nanos, ev.Wait, ev.Runtime, ev.Predicted, ev.PredErr, ev.Bsld, ev.Corrections, ev.Capacity, ev.Started)
	}
	seed(obs.Event{T: 0, Kind: "submit", Job: 1, Procs: 4, Request: 600, Prediction: 300})
	seed(obs.Event{T: 7, Kind: "pick", Job: 9, Cluster: "cluster-a", Procs: 8, Policy: "EASY", Picked: 9,
		QueueLen: 2, Free: 4, Eventual: 96})
	seed(obs.Event{T: 1 << 40, Kind: "capacity", Cluster: "c", Procs: -64})
	seed(obs.Event{T: -1, Kind: "finish", Job: 2, Cluster: "x\x00\x7f", Procs: 1, Request: 1, Prediction: 1,
		Policy: "p\xffq", Picked: 2, QueueLen: 1, Free: 1, Eventual: 1, Nanos: 1})
	seed(obs.Event{T: 5, Kind: "route", Workload: "KTH-SP2", Triple: "easy++", Job: 3, Cluster: "b",
		Router: "round-robin", Eligible: []string{"a", "b"}})
	seed(obs.Event{T: 9, Kind: "start", Job: 3, Cluster: "b", Procs: 8, Wait: 4})
	seed(obs.Event{T: 12, Kind: "finish", Job: 3, Runtime: 3, Predicted: 5, PredErr: 2, Wait: 4, Bsld: 1.4, Corrections: 1})
	seed(obs.Event{T: 4, Kind: "cancel", Job: 7, Started: true})
	seed(obs.Event{T: 4, Kind: "capacity", Cluster: "a", Procs: 32, Capacity: 96, Eventual: 96})
	seed(obs.Event{T: 8, Kind: "correct", Job: 1, Prediction: 100, Corrections: 2})
	for _, b := range []float64{1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0), -1e-7, -1e22,
		math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)} {
		seed(obs.Event{T: 1, Kind: "finish", Job: 1, Bsld: b})
	}
	for _, s := range []string{"<", "&", ">", "\x00", "\u2028", "\u2029", "\xff", "\"\\", "a,,b"} {
		seed(obs.Event{T: 1, Kind: s, Workload: s, Triple: s, Cluster: s, Router: s, Eligible: []string{s, s}, Policy: s})
	}
	// One file, overwritten by every input: a fuzz process runs its
	// inputs one at a time.
	path := filepath.Join(f.TempDir(), "stream.jsonl")
	f.Fuzz(func(t *testing.T, at int64, kind, workload, triple string, jobID int64, cluster string,
		procs, request, prediction int64, router, eligible, policy string, picked int64,
		queueLen int, free, eventual, nanos, wait, runtime, predicted, predErr int64,
		bsld float64, corrections int, capacity int64, started bool) {
		ev := obs.Event{
			T: at, Kind: kind, Workload: workload, Triple: triple, Job: jobID, Cluster: cluster,
			Procs: procs, Request: request, Prediction: prediction, Router: router, Policy: policy,
			Picked: picked, QueueLen: queueLen, Free: free, Eventual: eventual, Nanos: nanos,
			Wait: wait, Runtime: runtime, Predicted: predicted, PredErr: predErr, Bsld: bsld,
			Corrections: corrections, Capacity: capacity, Started: started,
		}
		if eligible != "" {
			ev.Eligible = strings.Split(eligible, ",")
		}
		line, err := obs.AppendLine(nil, &ev)
		want, werr := json.Marshal(&ev)
		if (err == nil) != (werr == nil) {
			t.Fatalf("AppendLine error %v, json.Marshal error %v", err, werr)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(line, append(want, '\n')) {
			t.Fatalf("AppendLine differs from json.Marshal:\nhave %q\nwant %q", line, want)
		}
		if bytes.Count(line, []byte("\n")) != 1 {
			t.Fatalf("not a single JSONL line: %q", line)
		}

		if err := os.WriteFile(path, line, 0o644); err != nil {
			t.Fatal(err)
		}
		var got []obs.Event
		if err := obs.ReadFile(path, func(_ int, ev obs.Event) error {
			got = append(got, ev)
			return nil
		}); err != nil {
			t.Fatalf("stream line does not round-trip through the trace reader: %v\nline: %q", err, line)
		}
		if len(got) != 1 {
			t.Fatalf("one event in, %d out", len(got))
		}
		// JSON string round trips replace invalid UTF-8 with the
		// replacement rune, so compare the JSON forms, which are
		// already past that normalization.
		want, _ = json.Marshal(normalizeThroughJSON(t, ev))
		have, _ := json.Marshal(got[0])
		if !bytes.Equal(want, have) {
			t.Fatalf("event changed in flight:\nsent %s\ngot  %s", want, have)
		}
	})
}

// normalizeThroughJSON passes an event through one marshal/unmarshal so
// the comparison baseline has the same UTF-8 normalization the wire
// imposes.
func normalizeThroughJSON(t *testing.T, ev obs.Event) obs.Event {
	t.Helper()
	b, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	var out obs.Event
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return out
}
