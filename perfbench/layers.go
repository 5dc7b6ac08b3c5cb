package main

import (
	"math"
	"math/bits"
	"sync"
	"time"

	"repro/internal/correct"
	"repro/internal/job"
	"repro/internal/platform"
	"repro/internal/predict"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/swf"
	"repro/internal/workload"
)

// hist is a log-linear latency histogram: exact below 32 ns, then 16
// sub-buckets per power of two (quantiles within ~6%). Adding is O(1)
// and allocation-free, so it can sit on a 12M-call hot path.
type hist struct {
	b [1024]uint64
	n uint64
}

func histIndex(v int64) int {
	if v < 32 {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 5
	return (e+1)*16 + int(uint64(v)>>uint(e)) - 16
}

// histValue is the midpoint of bucket i.
func histValue(i int) float64 {
	if i < 32 {
		return float64(i)
	}
	e := i/16 - 1
	m := i%16 + 16
	lo := float64(uint64(m) << uint(e))
	return lo + float64(uint64(1)<<uint(e))/2
}

func (h *hist) add(v int64) {
	h.b[histIndex(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.b {
		h.b[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile, 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.b {
		seen += c
		if seen >= rank {
			return histValue(i)
		}
	}
	return histValue(len(h.b) - 1)
}

// stat is the aggregate of one (layer, method, label) call site: call
// count, busy time and, when h is non-nil, the per-call latencies.
type stat struct {
	n  int64
	ns int64
	h  *hist
}

func (s *stat) since(t time.Time) {
	d := int64(time.Since(t))
	s.n++
	s.ns += d
	if s.h != nil {
		s.h.add(d)
	}
}

func (s *stat) merge(o *stat) {
	s.n += o.n
	s.ns += o.ns
	if o.h != nil {
		if s.h == nil {
			s.h = new(hist)
		}
		s.h.merge(o.h)
	}
}

func (s *stat) ms() float64 { return float64(s.ns) / 1e6 }

// key identifies a call site: the layer, the method, and a label such
// as the policy or predictor name.
type key struct{ layer, method, label string }

// ledger aggregates call sites across simulations. Each simulation
// fills its own probes without locking; add folds them in once the
// simulation ends.
type ledger struct {
	mu    sync.Mutex
	stats map[key]*stat
	count map[string]int64
}

func newLedger() *ledger {
	return &ledger{stats: make(map[key]*stat), count: make(map[string]int64)}
}

func (l *ledger) add(k key, s *stat) {
	if s == nil || s.n == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	cur := l.stats[k]
	if cur == nil {
		cur = &stat{}
		l.stats[k] = cur
	}
	cur.merge(s)
}

func (l *ledger) bump(name string, v int64) {
	l.mu.Lock()
	l.count[name] += v
	l.mu.Unlock()
}

// sum folds every call site matching the filter into one stat.
func (l *ledger) sum(match func(key) bool) *stat {
	out := &stat{}
	for k, s := range l.stats {
		if match(k) {
			out.merge(s)
		}
	}
	return out
}

func (l *ledger) layer(layer, method string) *stat {
	return l.sum(func(k key) bool { return k.layer == layer && (method == "" || k.method == method) })
}

func (l *ledger) site(layer, method, label string) *stat {
	return l.sum(func(k key) bool { return k == key{layer, method, label} })
}

// busyMs is the layer time the accounting check subtracts from the
// traced wall: every wrapped call site plus the sim-layer validation.
func (l *ledger) busyMs() float64 {
	var ns int64
	for _, s := range l.stats {
		ns += s.ns
	}
	return float64(ns) / 1e6
}

// policyProbe forwards every sched.Policy call to the wrapped policy,
// timing Pick per call and the lifecycle hooks in aggregate.
type policyProbe struct {
	inner      sched.Policy
	pick, hook stat
	starts     int64
	capChanges int64
}

func newPolicyProbe(p sched.Policy) *policyProbe {
	return &policyProbe{inner: p, pick: stat{h: new(hist)}}
}

func (p *policyProbe) Name() string { return p.inner.Name() }

func (p *policyProbe) Pick(now int64, m *platform.Machine, queue []*job.Job) *job.Job {
	t := time.Now()
	j := p.inner.Pick(now, m, queue)
	p.pick.since(t)
	return j
}

func (p *policyProbe) OnSubmit(j *job.Job, now int64) {
	t := time.Now()
	p.inner.OnSubmit(j, now)
	p.hook.since(t)
}

func (p *policyProbe) OnStart(j *job.Job, now int64) {
	t := time.Now()
	p.inner.OnStart(j, now)
	p.hook.since(t)
	p.starts++
}

func (p *policyProbe) OnFinish(j *job.Job, now int64) {
	t := time.Now()
	p.inner.OnFinish(j, now)
	p.hook.since(t)
}

func (p *policyProbe) OnExpiry(j *job.Job, now int64) {
	t := time.Now()
	p.inner.OnExpiry(j, now)
	p.hook.since(t)
}

func (p *policyProbe) OnCancel(j *job.Job, now int64) {
	t := time.Now()
	p.inner.OnCancel(j, now)
	p.hook.since(t)
}

func (p *policyProbe) OnCapacityChange(now int64, m *platform.Machine) {
	t := time.Now()
	p.inner.OnCapacityChange(now, m)
	p.hook.since(t)
	p.capChanges++
}

// predictorProbe forwards predict.Predictor calls, timing Predict and
// the learning hooks (OnSubmit/OnStart/OnFinish) separately.
type predictorProbe struct {
	inner          predict.Predictor
	predict, learn stat
}

func newPredictorProbe(p predict.Predictor) *predictorProbe {
	return &predictorProbe{inner: p, learn: stat{h: new(hist)}}
}

func (p *predictorProbe) Name() string { return p.inner.Name() }

func (p *predictorProbe) Predict(j *job.Job, now int64) int64 {
	t := time.Now()
	v := p.inner.Predict(j, now)
	p.predict.since(t)
	return v
}

func (p *predictorProbe) OnSubmit(j *job.Job, now int64) {
	t := time.Now()
	p.inner.OnSubmit(j, now)
	p.learn.since(t)
}

func (p *predictorProbe) OnStart(j *job.Job, now int64) {
	t := time.Now()
	p.inner.OnStart(j, now)
	p.learn.since(t)
}

func (p *predictorProbe) OnFinish(j *job.Job, now int64) {
	t := time.Now()
	p.inner.OnFinish(j, now)
	p.learn.since(t)
}

// learnerClass names the predictor family the learn_ms metrics split
// by: the on-line regression, the user-history average, or neither.
func learnerClass(p predict.Predictor) string {
	switch p.(type) {
	case *predict.Learning:
		return "ML"
	case *predict.UserAverage:
		return "AVE2"
	}
	return "none"
}

// correctorProbe forwards correct.Corrector calls, timing each.
type correctorProbe struct {
	inner correct.Corrector
	st    stat
}

func (c *correctorProbe) Name() string { return c.inner.Name() }

func (c *correctorProbe) Correct(elapsed, request int64, corrections int) int64 {
	t := time.Now()
	v := c.inner.Correct(elapsed, request, corrections)
	c.st.since(t)
	return v
}

// sinkProbe forwards sim.JobSink observations, timing each.
type sinkProbe struct {
	inner sim.JobSink
	st    stat
}

func (s *sinkProbe) Observe(j *job.Job) {
	t := time.Now()
	s.inner.Observe(j)
	s.st.since(t)
}

// sourceProbe forwards workload.Source pulls, timing each.
type sourceProbe struct {
	inner workload.Source
	st    stat
}

func (s *sourceProbe) NextJob() (swf.Job, error) {
	t := time.Now()
	j, err := s.inner.NextJob()
	s.st.since(t)
	return j, err
}

// probes is the set of wrappers one traced simulation runs under.
type probes struct {
	policy    *policyProbe
	predictor *predictorProbe
	corrector *correctorProbe
	sink      *sinkProbe
	source    *sourceProbe
	// sourceLayer names the layer the source's time is booked to:
	// "swf" for a scanned SWF file, "workload" for an in-memory or
	// generated stream.
	sourceLayer string
	// validate and batch time the work a preloading cell does after
	// the simulation: schedule validation and the batch metrics.
	validate, batch stat
}

// wrap replaces every layer interface of cfg with a timing probe. A nil
// corrector is replaced by the engine's own default first, so the
// probe sees every correction.
func wrap(cfg *sim.Config) *probes {
	p := &probes{
		policy:    newPolicyProbe(cfg.Policy),
		predictor: newPredictorProbe(cfg.Predictor),
	}
	if cfg.Corrector == nil {
		cfg.Corrector = correct.RequestedTime{}
	}
	p.corrector = &correctorProbe{inner: cfg.Corrector}
	cfg.Policy, cfg.Predictor, cfg.Corrector = p.policy, p.predictor, p.corrector
	if cfg.Sink != nil {
		p.sink = &sinkProbe{inner: cfg.Sink}
		cfg.Sink = p.sink
	}
	return p
}

// wrapSource puts a timing probe in front of a job source.
func (p *probes) wrapSource(src workload.Source, layer string) workload.Source {
	p.source = &sourceProbe{inner: src}
	p.sourceLayer = layer
	return p.source
}

// fold books one finished simulation's probes into the ledger.
func (p *probes) fold(l *ledger) {
	pol := p.policy.inner.Name()
	l.add(key{"sched", "pick", pol}, &p.policy.pick)
	l.add(key{"sched", "hook", pol}, &p.policy.hook)
	l.bump("sched.starts", p.policy.starts)
	l.bump("sched.capacity_changes", p.policy.capChanges)
	class := learnerClass(p.predictor.inner)
	l.add(key{"predict", "predict", class}, &p.predictor.predict)
	l.add(key{"predict", "learn", class}, &p.predictor.learn)
	l.add(key{"correct", "correct", p.corrector.inner.Name()}, &p.corrector.st)
	if p.sink != nil {
		l.add(key{"metrics", "observe", ""}, &p.sink.st)
	}
	if p.source != nil {
		l.add(key{p.sourceLayer, "next", ""}, &p.source.st)
	}
}
