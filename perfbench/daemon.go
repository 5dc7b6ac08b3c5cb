package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/schedd"
	"repro/internal/sim"
	"repro/internal/swf"
	"repro/internal/workload"
)

// The daemon workload's fixed knobs: the serve spec's triple and
// clients, the preset whose machine matches its 128 processors, and the
// latency limit a ladder step's p99 must meet to count for
// schedd.max_ok_rate.
const (
	daemonPreset   = "SDSC-SP2"
	latencyLimit   = 20 * time.Millisecond
	requestTimeout = 5 * time.Second
	readEvery      = 50
	refWindows     = 20
	satWindows     = 15
	warmupJobs     = 200
)

var daemonClients = []string{"batch", "interactive"}

// sessions are the two sessions the submit connection interleaves; job
// i goes to sessions[i%2].
var sessions = [2]string{"a", "b"}

// phase is one block of the daemon's timed schedule: n submissions at
// rate per second (0 = closed loop, as fast as responses come back).
// alternate switches the handler probe on for every other request;
// calEvery, when positive, runs a calibration burst before every
// calEvery-th request.
type phase struct {
	name      string
	rate      float64
	n         int
	alternate bool
	calEvery  int
}

// daemonPlan lays out the timed schedule for a run of the given
// length: a closed-loop warm-up, the reference rate in windows (25% of
// the time), the ladder (30%), then a closed-loop saturation phase.
func daemonPlan(sc scale, seconds float64) []phase {
	plan := []phase{{name: "warmup", n: warmupJobs}}
	win := 0.25 * seconds / refWindows
	for w := 0; w < refWindows; w++ {
		plan = append(plan, phase{name: fmt.Sprintf("reference/%d", w), rate: sc.daemonRef, n: max(1, int(sc.daemonRef*win))})
	}
	step := 0.3 * seconds / float64(sc.daemonSteps)
	for k := 0; k < sc.daemonSteps; k++ {
		r := sc.daemonBase * math.Pow(sc.daemonFactor, float64(k))
		plan = append(plan, phase{name: fmt.Sprintf("ladder/%.0f", r), rate: r, n: max(1, int(r*step))})
	}
	sat := max(100, int(float64(sc.daemonSatPerS)*seconds))
	return append(plan, phase{name: "saturation", n: sat, calEvery: sat / satWindows})
}

// daemonJobs generates n submissions from the run's seed on the
// preset's full machine, cleaned the way `schedd -replay` cleans a
// trace, in submit order.
func daemonJobs(e *env, n int) ([]schedd.JobSpec, int64, error) {
	cfg, err := workload.Preset(daemonPreset)
	if err != nil {
		return nil, 0, err
	}
	cfg.Jobs = n
	cfg.Seed = e.inputSeed(cfg.Seed)
	g, err := workload.NewGenSource(cfg)
	if err != nil {
		return nil, 0, err
	}
	src := workload.NewCleanSource(g, cfg.MaxProcs)
	var out []schedd.JobSpec
	for {
		j, err := src.NextJob()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, 0, err
		}
		out = append(out, schedd.JobSpec{Number: j.JobNumber, Submit: j.SubmitTime, Procs: j.Procs(),
			Request: j.Request(), Runtime: j.RunTime, User: j.UserID})
	}
	return out, cfg.MaxProcs, nil
}

// handlerProbe times the daemon's HTTP handler per request. It is only
// installed on a traced run; active switches the timing off for every
// other saturation request.
type handlerProbe struct {
	inner  http.Handler
	active atomic.Bool
	mu     sync.Mutex
	submit stat
	other  stat
}

func (h *handlerProbe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.active.Load() || r.URL.Path == "/v1/events" {
		h.inner.ServeHTTP(w, r)
		return
	}
	t := time.Now()
	h.inner.ServeHTTP(w, r)
	h.mu.Lock()
	if r.URL.Path == "/v1/jobs" {
		h.submit.since(t)
	} else {
		h.other.since(t)
	}
	h.mu.Unlock()
}

// rig is one running daemon with its two client connections: submits
// and reads on one, the event stream on the other.
type rig struct {
	d        *schedd.Daemon
	srv      *http.Server
	base     string
	hc       *http.Client
	probe    *handlerProbe
	events   io.Closer
	streamed atomic.Int64
	submits  atomic.Int64
	readDone chan struct{}
	jobs     []schedd.JobSpec
	maxProcs int64
	// gen is the time set-up spent generating the jobs.
	gen time.Duration
	buf []byte
}

// startRig generates the jobs, starts the daemon on a loopback
// listener, opens both sessions and subscribes to the event stream.
func startRig(e *env, n int) (*rig, error) {
	t := time.Now()
	jobs, mp, err := daemonJobs(e, n)
	if err != nil {
		return nil, err
	}
	gen := time.Since(t)
	d, err := schedd.New(schedd.Options{Workload: daemonPreset, MaxProcs: mp, Triple: core.EASYPlusPlus(), Clients: daemonClients})
	if err != nil {
		return nil, err
	}
	r := &rig{d: d, jobs: jobs, maxProcs: mp, gen: gen, readDone: make(chan struct{})}
	var h http.Handler = d.Handler()
	if e.trace {
		r.probe = &handlerProbe{inner: h, submit: stat{h: new(hist)}}
		r.probe.active.Store(true)
		h = r.probe
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.Shutdown()
		return nil, err
	}
	r.srv = &http.Server{Handler: h}
	go r.srv.Serve(ln)
	r.base = "http://" + ln.Addr().String()
	r.hc = &http.Client{Timeout: requestTimeout, Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	for i, s := range sessions {
		body := fmt.Sprintf(`{"session":%q,"client":%q}`, s, daemonClients[i])
		if _, err := r.post("/v1/sessions", []byte(body)); err != nil {
			r.close()
			return nil, err
		}
	}
	ec := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}}
	resp, err := ec.Get(r.base + "/v1/events")
	if err != nil {
		r.close()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		r.close()
		return nil, fmt.Errorf("/v1/events: HTTP %d", resp.StatusCode)
	}
	r.events = resp.Body
	go func() {
		defer close(r.readDone)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<16), 1<<20)
		submit := []byte(`"kind":"submit"`)
		for sc.Scan() {
			r.streamed.Add(1)
			if bytes.Contains(sc.Bytes(), submit) {
				r.submits.Add(1)
			}
		}
	}()
	return r, nil
}

// close stops the daemon, the server and the stream reader, and waits
// for all of them.
func (r *rig) close() {
	r.d.Shutdown()
	r.srv.Close()
	if r.events != nil {
		r.events.Close()
		<-r.readDone
	}
	r.hc.CloseIdleConnections()
}

// post sends one request body on the submit connection and returns the
// response body; a non-2xx status is an error.
func (r *rig) post(path string, body []byte) ([]byte, error) {
	resp, err := r.hc.Post(r.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return b, fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

func (r *rig) get(path string) error {
	resp, err := r.hc.Get(r.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s: HTTP %d", path, resp.StatusCode)
	}
	return nil
}

// submitBody renders job i's POST /v1/jobs body into the rig's buffer.
func (r *rig) submitBody(i int, malformed bool) []byte {
	j := r.jobs[i]
	procs := j.Procs
	if malformed {
		procs = 0
	}
	b := append(r.buf[:0], `{"session":"`...)
	b = append(b, sessions[i%2]...)
	b = append(b, `","job":{"number":`...)
	b = strconv.AppendInt(b, j.Number, 10)
	b = append(b, `,"submit":`...)
	b = strconv.AppendInt(b, j.Submit, 10)
	b = append(b, `,"procs":`...)
	b = strconv.AppendInt(b, procs, 10)
	b = append(b, `,"request":`...)
	b = strconv.AppendInt(b, j.Request, 10)
	b = append(b, `,"runtime":`...)
	b = strconv.AppendInt(b, j.Runtime, 10)
	b = append(b, `,"user":`...)
	b = strconv.AppendInt(b, j.User, 10)
	b = append(b, "}}"...)
	r.buf = b
	return b
}

// waitUntil paces the open-loop generator. Sleeping for less than a
// millisecond overshoots by about a millisecond on Linux, so it sleeps
// only until 1.5 ms before the due instant and yields the processor
// from there on.
func waitUntil(due time.Time) {
	for {
		d := time.Until(due)
		if d <= 0 {
			return
		}
		if d > 2*time.Millisecond {
			time.Sleep(d - 1500*time.Microsecond)
			continue
		}
		runtime.Gosched()
	}
}

// phaseStats is what one phase measured.
type phaseStats struct {
	phase
	wall                 time.Duration
	latMs, rttUs, lateUs []float64
	// onUs and offUs split the round trips of an alternating phase by
	// whether the handler probe was on.
	onUs, offUs []float64
	readMs      []float64
	// winRates are the submits per second of each calEvery-request
	// window between calibration bursts.
	winRates     []float64
	failed       int
	backlogStart int64
	backlogEnd   int64
}

// drive runs one phase from job index next on, returning its stats and
// the accepted jobs. Paced phases time every request from its due
// instant; the generator's own lateness is recorded separately, for
// requests it was free to send on time.
func (r *rig) drive(e *env, ph phase, next int, accepted *[]int) phaseStats {
	st := phaseStats{phase: ph, backlogStart: int64(len(*accepted)) - r.submits.Load()}
	t0, spent := time.Now(), e.cal.spent
	free := t0
	var win time.Time
	k0 := 0
	for k := 0; k < ph.n; k++ {
		i := next + k
		if ph.calEvery > 0 && k%ph.calEvery == 0 {
			if k > 0 {
				st.winRates = append(st.winRates, float64(k-k0)/time.Since(win).Seconds())
			}
			e.cal.burst()
			win, k0 = time.Now(), k
		}
		due := time.Now()
		if ph.rate > 0 {
			due = t0.Add(time.Duration(float64(k) / ph.rate * 1e9))
			waitUntil(due)
		}
		send := time.Now()
		if ph.rate > 0 && free.Before(due) {
			st.lateUs = append(st.lateUs, float64(send.Sub(due))/1e3)
		}
		if ph.alternate {
			r.probe.active.Store(k%2 == 0)
		}
		malformed := e.rejectEvery > 0 && strings.HasPrefix(ph.name, "reference") && i%e.rejectEvery == 0
		_, err := r.post("/v1/jobs", r.submitBody(i, malformed))
		done := time.Now()
		free = done
		lat := done.Sub(due)
		if err != nil {
			st.failed++
			lat = requestTimeout
		} else {
			*accepted = append(*accepted, i)
		}
		st.latMs = append(st.latMs, float64(lat)/1e6)
		rtt := float64(done.Sub(send)) / 1e3
		st.rttUs = append(st.rttUs, rtt)
		if ph.alternate && k%2 == 0 {
			st.onUs = append(st.onUs, rtt)
		} else if ph.alternate {
			st.offUs = append(st.offUs, rtt)
		}
		if e.spans != nil {
			e.spans.add("job/"+strconv.FormatInt(r.jobs[i].Number, 10), "phase/"+ph.name, "POST /v1/jobs", send,
				map[string]any{"due_ns": int64(due.Sub(e.spans.epoch)), "ok": err == nil})
		}
		if ph.rate > 0 && k%readEvery == readEvery-1 {
			t := time.Now()
			if err := r.get("/v1/metrics"); err != nil {
				st.failed++
			}
			st.readMs = append(st.readMs, float64(time.Since(t))/1e6)
		}
	}
	if ph.calEvery > 0 && ph.n > k0 {
		st.winRates = append(st.winRates, float64(ph.n-k0)/time.Since(win).Seconds())
	}
	st.wall = time.Since(t0) - (e.cal.spent - spent)
	st.backlogEnd = int64(len(*accepted)) - r.submits.Load()
	e.spans.add("phase/"+ph.name, "run", ph.name, t0, map[string]any{"rate": ph.rate, "n": ph.n, "failed": st.failed})
	return st
}

// ok reports whether a ladder step kept up: p99 within the latency
// limit and no backlog growth beyond stream lag.
func (st *phaseStats) ok() bool {
	growth := st.backlogEnd - st.backlogStart
	return st.failed == 0 && quantile(st.latMs, 0.99) <= float64(latencyLimit)/1e6 &&
		growth <= max(20, int64(st.n)/50)
}

// waitSeen waits until the event stream has shown n submissions.
func (r *rig) waitSeen(n int64) bool {
	deadline := time.Now().Add(requestTimeout)
	for r.submits.Load() < n {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
	return true
}

// waitIdle waits until the event stream has shown nothing new for 50
// ms, or for at most requestTimeout.
func (r *rig) waitIdle() {
	deadline := time.Now().Add(requestTimeout)
	for n := r.streamed.Load(); time.Now().Before(deadline); {
		time.Sleep(50 * time.Millisecond)
		m := r.streamed.Load()
		if m == n {
			return
		}
		n = m
	}
}

// shutdownSummary is the /v1/shutdown response.
type shutdownSummary struct {
	Finished    int                    `json:"finished"`
	Canceled    int                    `json:"canceled"`
	Makespan    int64                  `json:"makespan"`
	Corrections int                    `json:"corrections"`
	Metrics     schedd.MetricsSnapshot `json:"metrics"`
}

func (s *shutdownSummary) digest() string {
	m := s.Metrics
	return digestOf([]string{fmt.Sprint(s.Finished, s.Canceled, s.Makespan, s.Corrections),
		cellDigest("daemon", m.AVEbsld, m.MaxBsld, m.MeanWait, m.Utilization, s.Corrections),
		floatKey(m.MAE) + "|" + floatKey(m.MeanELoss)})
}

// offline runs sim.RunStream over the accepted jobs exactly as the
// daemon received them and renders the same summary.
func (r *rig) offline(accepted []int) (*shutdownSummary, error) {
	recs := make([]swf.Job, len(accepted))
	for k, i := range accepted {
		j := r.jobs[i]
		recs[k] = swf.Job{JobNumber: j.Number, SubmitTime: j.Submit, RunTime: j.Runtime, AllocatedProcs: j.Procs,
			RequestedProcs: j.Procs, RequestedTime: j.Request, UserID: j.User, Partition: int64(i%2) + 1}
	}
	cfg := core.EASYPlusPlus().Config()
	col := metrics.NewCollector()
	cfg.Sink = col
	res, err := sim.RunStream(daemonPreset, r.maxProcs, workload.NewSliceSource(recs), cfg)
	if err != nil {
		return nil, err
	}
	return &shutdownSummary{Finished: res.Finished, Canceled: res.Canceled, Makespan: res.Makespan, Corrections: res.Corrections,
		Metrics: schedd.MetricsSnapshot{AVEbsld: col.AVEbsld(), MaxBsld: col.MaxBsld(), MeanWait: col.MeanWait(),
			Utilization: col.Utilization(res.Makespan, res.MaxProcs), MAE: col.MAE(), MeanELoss: col.MeanELoss()}}, nil
}

// runDaemon drives schedd in virtual time on a loopback listener: one
// connection carries both sessions' submissions (plus a metrics read
// every 50 submits) through a warm-up, the reference rate, the rate
// ladder and a closed-loop saturation phase; the other holds the event
// stream. The ladder stops after its first failing step. The shutdown
// summary must equal sim.RunStream over the same jobs.
func runDaemon(ctx context.Context, e *env) (*outcome, error) {
	plan := daemonPlan(e.scale, e.seconds)
	total := 0
	for _, ph := range plan {
		total += ph.n
	}
	var genMs []float64
	r, setupS, err := setup(e, func() (*rig, func(), error) {
		r, err := startRig(e, total)
		if err != nil {
			return nil, nil, err
		}
		genMs = append(genMs, float64(r.gen)/1e6)
		return r, r.close, nil
	})
	if err != nil {
		return nil, err
	}
	defer r.close()
	if len(r.jobs) < total {
		return nil, fmt.Errorf("generated %d jobs, the plan needs %d", len(r.jobs), total)
	}
	e.logf("daemon: %d jobs on %d procs, %d phases, reference %g/s, latency limit %v, GOMAXPROCS %d",
		total, r.maxProcs, len(plan), e.scale.daemonRef, latencyLimit, runtime.GOMAXPROCS(0))
	out := newOutcome()
	out.e2e["setup_s"] = setupS
	out.layer["workload.generate_ms"] = median(genMs)
	out.goldenKey = fmt.Sprintf("daemon/%gs", e.seconds)

	// The daemon's timings are scaled by bare HTTP round trips, timed
	// within the saturation phase (see host.go).
	hk, err := newHTTPKernel()
	if err != nil {
		return nil, err
	}
	defer hk.close()
	e.cal = &calibrator{k: hk, refNs: httpKernelNs}

	var accepted []int
	var stats []phaseStats
	next, climbing := 0, true
	tRun := time.Now()
	for _, ph := range plan {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ladder := strings.HasPrefix(ph.name, "ladder")
		if ladder && !climbing {
			// Above the first failing step the jobs still go in, closed
			// loop and out of the ladder, so that the saturation phase
			// starts at the same job, and the job set and the digest are
			// the same, wherever the ladder stopped.
			ph.name, ph.rate = "skipped/"+strings.TrimPrefix(ph.name, "ladder/"), 0
		}
		if ph.name != "saturation" {
			st := r.drive(e, ph, next, &accepted)
			climbing = climbing && (!ladder || st.ok())
			stats = append(stats, st)
			next += ph.n
			continue
		}
		// Saturation: closed loop to the end, then release the held
		// commands and wait for the stream to show every submission.
		// A traced run times the handler on every other request only,
		// giving the probe's overhead on interleaved, identical work.
		t0, spent := time.Now(), e.cal.spent
		ph.alternate = r.probe != nil
		sat := r.drive(e, ph, next, &accepted)
		next += ph.n
		if r.probe != nil {
			r.probe.active.Store(true)
			out.layer["trace.overhead_frac"] = sumFloats(sat.onUs)/sumFloats(sat.offUs) - 1
		}
		last := r.jobs[next-1].Submit + 1
		for _, s := range sessions {
			if _, err := r.post("/v1/advance", []byte(fmt.Sprintf(`{"session":%q,"t":%d}`, s, last))); err != nil {
				sat.failed++
			}
		}
		out.check(r.waitSeen(int64(len(accepted))))
		sat.wall = time.Since(t0) - (e.cal.spent - spent)
		stats = append(stats, sat)
	}
	runWall := time.Since(tRun) - e.cal.spent
	// The daemon's state only grows, so its heap peaks at the end of the
	// timed schedule; it is read there, on a collected heap, once the
	// event stream has caught up. Neither the sampled peak (42 to 61 MiB
	// over five seeds, with the event subscriber's mailbox holding
	// whatever the reader lagged by when a collection ended) nor the heap
	// after /v1/shutdown, whose drain fills that mailbox by 20 to 30 MiB,
	// repeats.
	if !e.trace {
		r.waitIdle()
		runtime.GC()
		out.e2e["peak_heap_mib"] = float64(readHeap()) / (1 << 20)
	}

	// Score every request: failures are failed operations.
	var ref, lad []phaseStats
	var backlogMax int64
	for _, st := range stats {
		out.attempted += int64(st.n + len(st.readMs))
		out.failed += int64(st.failed)
		backlogMax = max(backlogMax, st.backlogEnd)
		switch {
		case strings.HasPrefix(st.name, "reference"):
			ref = append(ref, st)
		case strings.HasPrefix(st.name, "ladder"):
			lad = append(lad, st)
		}
	}
	maxOK := 0.0
	for _, st := range lad {
		if !st.ok() {
			break
		}
		maxOK = st.rate
	}
	for _, st := range lad {
		e.logf("  ladder %6.0f/s: %5d submits in %6.3fs, p50 %7.3f ms, p99 %7.3f ms, backlog %+d, ok %v",
			st.rate, st.n, st.wall.Seconds(), quantile(st.latMs, 0.5), quantile(st.latMs, 0.99), st.backlogEnd-st.backlogStart, st.ok())
	}
	var p50s, lat, rtt, late, reads []float64
	samples := 0
	for _, st := range ref {
		p50s = append(p50s, quantile(st.latMs, 0.5))
		lat = append(lat, st.latMs...)
		rtt = append(rtt, st.rttUs...)
		late = append(late, st.lateUs...)
		reads = append(reads, st.readMs...)
		samples += len(st.latMs)
	}
	sat := stats[len(stats)-1]
	e.logf("reference %g/s: %d submits in %d windows, p50 %.4f ms (window p50s %.4f to %.4f ms), p99 %.3f ms; %d reads, p50 %.3f ms; max_ok_rate %g/s; saturation %d submits in %.3fs, round trip p50 %.4f ms",
		e.scale.daemonRef, samples, len(ref), median(lat), quantile(p50s, 0), quantile(p50s, 1), quantile(lat, 0.99), len(reads), quantile(reads, 0.5), maxOK, sat.n, sat.wall.Seconds(), median(sat.latMs))

	// Output checks: the shutdown summary against the offline run.
	var proj *schedd.Projection
	if e.trace {
		t := time.Now()
		proj, err = r.d.WhatIf(nil)
		out.layer["schedd.whatif_ms"] = float64(time.Since(t)) / 1e6
		out.check(err == nil)
	}
	t := time.Now()
	body, err := r.post("/v1/shutdown", []byte("{}"))
	drain := time.Since(t)
	out.check(err == nil)
	var got shutdownSummary
	if err == nil {
		err = json.Unmarshal(body, &got)
	}
	want, oerr := r.offline(accepted)
	if err != nil || oerr != nil {
		return nil, errors.Join(err, oerr)
	}
	out.digest = got.digest()
	same := got.digest() == want.digest()
	out.check(same)
	if !same {
		e.logf("daemon summary %+v differs from sim.RunStream %+v", got, *want)
	}
	if proj != nil {
		out.check(proj.Finished == got.Finished && proj.AVEbsld == got.Metrics.AVEbsld)
	}
	r.events.Close()
	<-r.readDone
	r.events = nil

	// The median window rate: the rate over the whole phase also counts
	// its slowest requests, whose share moved from run to run (mean round
	// trip over median, 1.28 to 1.54 in ten runs) with GC and the event
	// stream, which the calibration kernel does not follow.
	out.e2e["sim_jobs_per_s"] = median(sat.winRates)
	// The submit round trip at saturation. The latency at the reference
	// rate, schedd.submit_p50_ms, is not steady enough to gate: over sets
	// of ten runs its median spread by up to 29% (interquartile range
	// over median), the median of its 20 window medians by 17% to 43%,
	// and their minimum by up to 33%; the bursts that scale the daemon
	// run only at saturation.
	out.e2e["op_p50_ms"] = median(sat.latMs)
	if !e.trace {
		return out, nil
	}
	out.layer["schedd.submit_p50_ms"] = median(lat)
	out.layer["schedd.submit_p99_ms"] = quantile(lat, 0.99)
	out.layer["schedd.rtt_us_p50"] = quantile(rtt, 0.5)
	out.layer["schedd.rtt_us_p99"] = quantile(rtt, 0.99)
	out.layer["schedd.gen_late_us_p99"] = quantile(late, 0.99)
	out.layer["schedd.read_p50_ms"] = quantile(reads, 0.5)
	out.layer["schedd.read_ms_p90"] = quantile(reads, 0.9)
	out.layer["schedd.max_ok_rate"] = maxOK
	out.layer["schedd.backlog_max"] = float64(backlogMax)
	out.layer["schedd.events_streamed"] = float64(r.streamed.Load())
	out.layer["schedd.drain_ms"] = float64(drain) / 1e6
	out.layer["schedd.handler_us_p50"] = r.probe.submit.h.quantile(0.5) / 1e3
	out.layer["schedd.handler_us_p99"] = r.probe.submit.h.quantile(0.99) / 1e3
	out.layer["trace.wall_ms"] = float64(runWall) / 1e6
	out.layer["trace.layers_ms"] = r.probe.submit.ms() + r.probe.other.ms()
	// HTTP decode on the same bodies, outside the server.
	dec := stat{h: new(hist)}
	for i := warmupJobs; i < warmupJobs+samples && i < len(r.jobs); i++ {
		b := r.submitBody(i, false)
		t := time.Now()
		if _, err := schedd.ParseSubmitRequest(b); err != nil {
			out.check(false)
		}
		dec.since(t)
	}
	out.layer["schedd.decode_us_p50"] = dec.h.quantile(0.5) / 1e3
	return out, nil
}
