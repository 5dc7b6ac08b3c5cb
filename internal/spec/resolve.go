package spec

// This file decodes the merged node tree into the typed Spec,
// validating names and values against the vocabularies of the core,
// scenario and workload packages. Every error is positional
// (file:line), including bad triple/intensity names — the line points
// into whichever file of an include chain contributed the node.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/correct"
	"repro/internal/ml"
	"repro/internal/platform"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/workload"
)

// decode fills the Spec from the merged tree.
func (s *Spec) decode(tree *node) error {
	if err := tree.checkKeys("kind", "seed", "repeats", "jobs", "parallelism",
		"stream", "workloads", "triples", "scenarios", "clusters",
		"routing", "output", "trace", "serve"); err != nil {
		return err
	}

	s.Kind = "campaign"
	if n := tree.at("kind"); n != nil {
		v, err := n.str()
		if err != nil {
			return err
		}
		if v != "campaign" && v != "robustness" {
			return n.errf("unknown kind %q (have campaign, robustness)", v)
		}
		s.Kind = v
	}
	if n := tree.at("seed"); n != nil {
		v, err := n.toUint64()
		if err != nil {
			return err
		}
		s.Seed = v
	} else {
		s.Seed = 1
	}
	s.Repeats = 1
	if n := tree.at("repeats"); n != nil {
		v, err := n.toInt()
		if err != nil {
			return err
		}
		if v < 1 {
			return n.errf("repeats must be >= 1, got %d", v)
		}
		s.Repeats = v
	}
	if n := tree.at("jobs"); n != nil {
		v, err := n.toInt()
		if err != nil {
			return err
		}
		if v < 0 {
			return n.errf("jobs must be >= 0 (0 = full Table-4 sizes), got %d", v)
		}
		s.Jobs = v
	}
	if n := tree.at("parallelism"); n != nil {
		v, err := n.toInt()
		if err != nil {
			return err
		}
		if v < 0 {
			return n.errf("parallelism must be >= 0 (0 = GOMAXPROCS), got %d", v)
		}
		s.Parallelism = v
	}
	if n := tree.at("stream"); n != nil {
		v, err := n.toBool()
		if err != nil {
			return err
		}
		s.Stream = v
	}

	if n := tree.at("workloads"); n != nil {
		if err := s.decodeWorkloads(n); err != nil {
			return err
		}
	}
	if n := tree.at("triples"); n != nil {
		if err := s.decodeTriples(n); err != nil {
			return err
		}
	}
	if n := tree.at("scenarios"); n != nil {
		if err := s.decodeScenarios(n); err != nil {
			return err
		}
	}
	if n := tree.at("clusters"); n != nil {
		if err := s.decodeClusters(n); err != nil {
			return err
		}
	}
	if n := tree.at("routing"); n != nil {
		if err := s.decodeRouting(n); err != nil {
			return err
		}
	}
	if n := tree.at("output"); n != nil {
		if err := s.decodeOutput(n); err != nil {
			return err
		}
	}
	if n := tree.at("trace"); n != nil {
		if err := s.decodeTrace(n); err != nil {
			return err
		}
	}
	if n := tree.at("serve"); n != nil {
		if err := s.decodeServe(n); err != nil {
			return err
		}
	}
	// The lines Check cites when a rule breaks in this file.
	s.pos = map[string]string{}
	for key, n := range map[string]*node{
		"repeats": tree.at("repeats"), "scenarios": tree.at("scenarios"),
		"clusters": tree.at("clusters"), "routing": tree.at("routing"),
		"resume": tree.at("output").at("resume"), "tables": tree.at("output").at("tables"),
		"figures": tree.at("output").at("figures"),
	} {
		if n != nil {
			s.pos[key] = fmt.Sprintf("%s:%d", n.file, n.line)
		}
	}
	return nil
}

// decodeServe reads the serve section: the live-daemon configuration
// cmd/schedd -spec consumes. The triple entry reuses the grid
// vocabulary but must resolve to exactly one triple — a daemon
// schedules with a single heuristic bundle.
func (s *Spec) decodeServe(n *node) error {
	if n.kind != kindMap {
		return n.errf("serve must be a mapping")
	}
	if err := n.checkKeys("addr", "max_procs", "scale", "triple", "clients"); err != nil {
		return err
	}
	srv := &Serve{Addr: "localhost:8080", Triple: core.EASYPlusPlus()}
	var err error
	if an := n.at("addr"); an != nil {
		if srv.Addr, err = an.str(); err != nil {
			return err
		}
	}
	mp := n.at("max_procs")
	if mp == nil {
		return n.errf("serve needs max_procs (the machine size)")
	}
	if srv.MaxProcs, err = mp.toInt64(); err != nil {
		return err
	}
	if srv.MaxProcs <= 0 {
		return mp.errf("max_procs must be positive, got %d", srv.MaxProcs)
	}
	if sn := n.at("scale"); sn != nil {
		if srv.Scale, err = sn.toFloat(); err != nil {
			return err
		}
		if srv.Scale < 0 {
			return sn.errf("scale must be >= 0 (0 = virtual time), got %v", srv.Scale)
		}
	}
	if tn := n.at("triple"); tn != nil {
		switch tn.kind {
		case kindScalar:
			ts, ok := namedTriples(tn.scalar)
			if !ok {
				return tn.errf("unknown triple %q (have %s, or a structured mapping)", tn.scalar, tripleNames)
			}
			if len(ts) != 1 {
				return tn.errf("triple %q expands to %d triples; serve needs exactly one", tn.scalar, len(ts))
			}
			srv.Triple = ts[0]
		case kindMap:
			if srv.Triple, err = decodeStructuredTriple(tn); err != nil {
				return err
			}
		default:
			return tn.errf("triple must be a name or a mapping")
		}
	}
	if cn := n.at("clients"); cn != nil {
		if cn.kind != kindList || len(cn.items) == 0 {
			return cn.errf("clients must be a non-empty list of names (omit the key for no split)")
		}
		seen := map[string]bool{}
		for _, item := range cn.items {
			name, err := item.str()
			if err != nil {
				return err
			}
			if seen[name] {
				return item.errf("duplicate client %q", name)
			}
			seen[name] = true
			srv.Clients = append(srv.Clients, name)
		}
	}
	s.Serve = srv
	return nil
}

// decodeTrace reads the flight-recorder section: the JSONL destination
// and the per-stage profiling switch.
func (s *Spec) decodeTrace(n *node) error {
	if n.kind != kindMap {
		return n.errf("trace must be a mapping")
	}
	if err := n.checkKeys("file", "profile"); err != nil {
		return err
	}
	if fn := n.at("file"); fn != nil {
		// str rejects empty scalars, so "file:" cannot silently disable
		// tracing — omit the key instead.
		v, err := fn.str()
		if err != nil {
			return err
		}
		s.Trace.File = v
	}
	if pn := n.at("profile"); pn != nil {
		v, err := pn.toBool()
		if err != nil {
			return err
		}
		s.Trace.Profile = v
	}
	return nil
}

// decodeClusters reads the federated platform: a list whose entries are
// either flag-syntax scalars ("64", "64x0.5", "slow=32x0.5") or
// mappings (name / procs / speed). Validation — positive sizes, unique
// names — is platform.Normalize's, surfaced at the list's position.
func (s *Spec) decodeClusters(n *node) error {
	if n.kind != kindList {
		return n.errf("clusters must be a list")
	}
	if len(n.items) == 0 {
		return n.errf("clusters must not be empty (omit the key for single-machine runs)")
	}
	clusters := make([]platform.Cluster, 0, len(n.items))
	for _, item := range n.items {
		switch item.kind {
		case kindScalar:
			c, err := platform.ParseClusterEntry(item.scalar)
			if err != nil {
				return item.errf("%v", err)
			}
			clusters = append(clusters, c)
		case kindMap:
			if err := item.checkKeys("name", "procs", "speed"); err != nil {
				return err
			}
			pn := item.at("procs")
			if pn == nil {
				return item.errf("cluster entry needs procs")
			}
			var c platform.Cluster
			procs, err := pn.toInt64()
			if err != nil {
				return err
			}
			c.Procs = procs
			if nn := item.at("name"); nn != nil {
				if c.Name, err = nn.str(); err != nil {
					return err
				}
			}
			if sn := item.at("speed"); sn != nil {
				if c.Speed, err = sn.toFloat(); err != nil {
					return err
				}
				if c.Speed <= 0 {
					return sn.errf("speed factor %v must be positive", c.Speed)
				}
			}
			clusters = append(clusters, c)
		default:
			return item.errf("cluster entries must be PROCS[xSPEED] scalars or mappings")
		}
	}
	norm, err := platform.Normalize(clusters)
	if err != nil {
		return n.errf("%v", err)
	}
	s.Clusters = norm
	return nil
}

// decodeRouting reads the routing axis: a policy name or a list of
// them, validated against the sched.NewRouter vocabulary.
func (s *Spec) decodeRouting(n *node) error {
	var items []*node
	switch n.kind {
	case kindScalar:
		items = []*node{n}
	case kindList:
		if len(n.items) == 0 {
			return n.errf("routing must not be empty (omit the key for round-robin)")
		}
		items = n.items
	default:
		return n.errf("routing must be a policy name or a list of them (have %s)", sched.RouterNames)
	}
	seen := map[string]bool{}
	for _, item := range items {
		name, err := item.str()
		if err != nil {
			return err
		}
		if _, err := sched.NewRouter(name); err != nil {
			return item.errf("unknown routing policy %q (have %s)", name, sched.RouterNames)
		}
		if seen[name] {
			return item.errf("duplicate routing policy %q", name)
		}
		seen[name] = true
		s.Routings = append(s.Routings, name)
	}
	return nil
}

func (s *Spec) decodeWorkloads(n *node) error {
	if n.kind != kindList {
		return n.errf("workloads must be a list")
	}
	if len(n.items) == 0 {
		return n.errf("workloads must not be empty (omit the key for the default preset set)")
	}
	for _, item := range n.items {
		w, err := s.decodeWorkload(item)
		if err != nil {
			return err
		}
		s.Workloads = append(s.Workloads, w)
	}
	return nil
}

func (s *Spec) decodeWorkload(n *node) (WorkloadSpec, error) {
	if n.kind == kindScalar {
		// Shorthand: a bare preset name.
		if _, err := workload.Preset(n.scalar); err != nil {
			return WorkloadSpec{}, n.errf("unknown preset %q (have %s)", n.scalar, strings.Join(workload.PresetNames(), ", "))
		}
		return WorkloadSpec{Preset: n.scalar, Jobs: -1}, nil
	}
	if n.kind != kindMap {
		return WorkloadSpec{}, n.errf("workload entries must be preset names or mappings")
	}
	if n.at("config") != nil {
		if err := n.checkKeys("name", "config", "clients"); err != nil {
			return WorkloadSpec{}, err
		}
		nameNode := n.at("name")
		if nameNode == nil {
			return WorkloadSpec{}, n.errf("inline workload needs a name")
		}
		name, err := nameNode.str()
		if err != nil {
			return WorkloadSpec{}, err
		}
		cfg, err := decodeWorkloadConfig(n.at("config"), name)
		if err != nil {
			return WorkloadSpec{}, err
		}
		w := WorkloadSpec{Config: cfg, Jobs: -1}
		if cn := n.at("clients"); cn != nil {
			if w.Clients, err = decodeClients(cn); err != nil {
				return WorkloadSpec{}, err
			}
		}
		return w, nil
	}
	if err := n.checkKeys("preset", "jobs", "seed", "clients"); err != nil {
		return WorkloadSpec{}, err
	}
	presetNode := n.at("preset")
	if presetNode == nil {
		return WorkloadSpec{}, n.errf("workload entry needs a preset (or an inline config)")
	}
	preset, err := presetNode.str()
	if err != nil {
		return WorkloadSpec{}, err
	}
	if _, err := workload.Preset(preset); err != nil {
		return WorkloadSpec{}, presetNode.errf("unknown preset %q (have %s)", preset, strings.Join(workload.PresetNames(), ", "))
	}
	w := WorkloadSpec{Preset: preset, Jobs: -1}
	if jn := n.at("jobs"); jn != nil {
		v, err := jn.toInt()
		if err != nil {
			return WorkloadSpec{}, err
		}
		if v < 0 {
			return WorkloadSpec{}, jn.errf("jobs must be >= 0, got %d", v)
		}
		w.Jobs = v
	}
	if sn := n.at("seed"); sn != nil {
		v, err := sn.toUint64()
		if err != nil {
			return WorkloadSpec{}, err
		}
		w.Seed = v
	}
	if cn := n.at("clients"); cn != nil {
		clients, err := decodeClients(cn)
		if err != nil {
			return WorkloadSpec{}, err
		}
		w.Clients = clients
	}
	return w, nil
}

// decodeClients reads a clients block: the multi-client decomposition
// of one workload entry (see docs/WORKLOADS.md for the schema).
// Cross-client validity — unique names, fraction sums, arrival
// vocabulary, envelope shape — is workload.ValidateClients's job,
// surfaced at the list's position.
func decodeClients(n *node) ([]workload.Client, error) {
	if n.kind != kindList {
		return nil, n.errf("clients must be a list")
	}
	if len(n.items) == 0 {
		return nil, n.errf("clients must not be empty (omit the key for a single population)")
	}
	out := make([]workload.Client, 0, len(n.items))
	for _, item := range n.items {
		c, err := decodeClient(item)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	if err := workload.ValidateClients(out); err != nil {
		return nil, n.errf("%v", err)
	}
	return out, nil
}

func decodeClient(n *node) (workload.Client, error) {
	if n.kind != kindMap {
		return workload.Client{}, n.errf("client entries must be mappings")
	}
	if err := n.checkKeys("name", "fraction", "arrival", "shape", "envelope",
		"envelope_period", "users", "runtime_log_mean", "runtime_log_sigma",
		"class_sigma", "serial_fraction", "max_job_procs_fraction"); err != nil {
		return workload.Client{}, err
	}
	var c workload.Client
	var err error
	if nn := n.at("name"); nn != nil {
		if c.Name, err = nn.str(); err != nil {
			return workload.Client{}, err
		}
	}
	fn := n.at("fraction")
	if fn == nil {
		return workload.Client{}, n.errf("client needs a fraction (its share of the job stream)")
	}
	if c.Fraction, err = fn.toFloat(); err != nil {
		return workload.Client{}, err
	}
	if an := n.at("arrival"); an != nil {
		if c.Arrival, err = an.str(); err != nil {
			return workload.Client{}, err
		}
	}
	if sn := n.at("shape"); sn != nil {
		if c.Shape, err = sn.toFloat(); err != nil {
			return workload.Client{}, err
		}
	}
	if en := n.at("envelope"); en != nil {
		if c.Envelope, err = en.toFloatList(); err != nil {
			return workload.Client{}, err
		}
	}
	if pn := n.at("envelope_period"); pn != nil {
		if c.EnvelopePeriod, err = pn.toInt64(); err != nil {
			return workload.Client{}, err
		}
	}
	if un := n.at("users"); un != nil {
		if c.Users, err = un.toInt(); err != nil {
			return workload.Client{}, err
		}
	}
	// Distribution overrides: a present key overrides the base config
	// even at zero, hence the pointer fields.
	for _, o := range []struct {
		key string
		dst **float64
	}{
		{"runtime_log_mean", &c.RuntimeLogMean},
		{"runtime_log_sigma", &c.RuntimeLogSigma},
		{"class_sigma", &c.ClassSigma},
		{"serial_fraction", &c.SerialFraction},
		{"max_job_procs_fraction", &c.MaxJobProcsFraction},
	} {
		on := n.at(o.key)
		if on == nil {
			continue
		}
		v, err := on.toFloat()
		if err != nil {
			return workload.Client{}, err
		}
		*o.dst = &v
	}
	return c, nil
}

// configFields maps the snake_case spec schema onto workload.Config.
// Field validity (positivity, ranges) is workload.Config.Validate's
// job; this only converts and rejects unknown fields.
func decodeWorkloadConfig(n *node, name string) (*workload.Config, error) {
	if n.kind != kindMap {
		return nil, n.errf("config must be a mapping")
	}
	cfg := &workload.Config{Name: name}
	type field struct {
		i64 *int64
		i   *int
		f   *float64
		u64 *uint64
	}
	fields := map[string]field{
		"max_procs":              {i64: &cfg.MaxProcs},
		"jobs":                   {i: &cfg.Jobs},
		"users":                  {i: &cfg.Users},
		"user_zipf_exponent":     {f: &cfg.UserZipfExponent},
		"classes_per_user":       {i: &cfg.ClassesPerUser},
		"runtime_log_mean":       {f: &cfg.RuntimeLogMean},
		"runtime_log_sigma":      {f: &cfg.RuntimeLogSigma},
		"class_sigma":            {f: &cfg.ClassSigma},
		"max_runtime":            {i64: &cfg.MaxRuntime},
		"serial_fraction":        {f: &cfg.SerialFraction},
		"max_job_procs_fraction": {f: &cfg.MaxJobProcsFraction},
		"target_load":            {f: &cfg.TargetLoad},
		"default_walltime":       {i64: &cfg.DefaultWalltime},
		"default_walltime_frac":  {f: &cfg.DefaultWalltimeFrac},
		"overestimate_shape":     {f: &cfg.OverestimateShape},
		"min_request":            {i64: &cfg.MinRequest},
		"kill_fraction":          {f: &cfg.KillFraction},
		"crash_fraction":         {f: &cfg.CrashFraction},
		"session_stickiness":     {f: &cfg.SessionStickiness},
		"burst_fraction":         {f: &cfg.BurstFraction},
		"burst_gap":              {i64: &cfg.BurstGap},
		"class_stickiness":       {f: &cfg.ClassStickiness},
		"seed":                   {u64: &cfg.Seed},
	}
	allowed := make([]string, 0, len(fields))
	for k := range fields {
		allowed = append(allowed, k)
	}
	sort.Strings(allowed)
	if err := n.checkKeys(allowed...); err != nil {
		return nil, err
	}
	for _, key := range n.keys {
		child := n.fields[key]
		f := fields[key]
		var err error
		switch {
		case f.i64 != nil:
			var v int64
			v, err = child.toInt64()
			*f.i64 = v
		case f.i != nil:
			var v int
			v, err = child.toInt()
			*f.i = v
		case f.f != nil:
			var v float64
			v, err = child.toFloat()
			*f.f = v
		case f.u64 != nil:
			var v uint64
			v, err = child.toUint64()
			*f.u64 = v
		}
		if err != nil {
			return nil, err
		}
	}
	if err := cfg.Validate(); err != nil {
		return nil, n.errf("%v", err)
	}
	return cfg, nil
}

// norm canonicalizes a vocabulary name: lowercase with separators
// stripped, so "paper-best", "PaperBest" and "paper_best" all match.
func norm(s string) string {
	s = strings.ToLower(s)
	return strings.Map(func(r rune) rune {
		if r == '-' || r == '_' || r == ' ' {
			return -1
		}
		return r
	}, s)
}

// namedTriples expands a scalar triple entry: one of core's named
// triples, or the name of a whole set (the full campaign grid, the
// robustness sweep's default).
func namedTriples(name string) ([]core.Triple, bool) {
	switch norm(name) {
	case "campaigngrid":
		return core.CampaignTriples(), true
	case "robustnessdefault":
		return campaign.DefaultRobustnessTriples(), true
	}
	t, err := core.TripleByName(name)
	return []core.Triple{t}, err == nil
}

const tripleNames = core.TripleNames + ", campaign-grid, robustness-default"

func (s *Spec) decodeTriples(n *node) error {
	if n.kind != kindList {
		return n.errf("triples must be a list")
	}
	if len(n.items) == 0 {
		return n.errf("triples must not be empty (omit the key for the kind's default set)")
	}
	for _, item := range n.items {
		switch item.kind {
		case kindScalar:
			ts, ok := namedTriples(item.scalar)
			if !ok {
				return item.errf("unknown triple %q (have %s, or a structured mapping)", item.scalar, tripleNames)
			}
			s.Triples = append(s.Triples, ts...)
		case kindMap:
			tr, err := decodeStructuredTriple(item)
			if err != nil {
				return err
			}
			s.Triples = append(s.Triples, tr)
		default:
			return item.errf("triple entries must be names or mappings")
		}
	}
	return nil
}

// decodeStructuredTriple builds a core.Triple from its axes:
//
//	predictor: requested | clairvoyant | ave2 | ml
//	over, under: lin | sq        (ml only; loss branches)
//	weight: const | shortwide | longnarrow | smallarea | largearea
//	corrector: requested-time | incremental | recursive-doubling
//	policy: easy | fcfs | conservative   (default easy)
//	backfill: fcfs | sjbf                (easy only; scan order)
func decodeStructuredTriple(n *node) (core.Triple, error) {
	if err := n.checkKeys("predictor", "over", "under", "weight", "corrector", "policy", "backfill"); err != nil {
		return core.Triple{}, err
	}
	var tr core.Triple

	pn := n.at("predictor")
	if pn == nil {
		return core.Triple{}, n.errf("structured triple needs a predictor")
	}
	pname, err := pn.str()
	if err != nil {
		return core.Triple{}, err
	}
	isML := false
	switch norm(pname) {
	case "requested", "requestedtime":
		tr.Predictor = core.PredRequested
	case "clairvoyant":
		tr.Predictor = core.PredClairvoyant
	case "ave2":
		tr.Predictor = core.PredAve2
	case "ml", "learning":
		tr.Predictor = core.PredLearning
		isML = true
	default:
		return core.Triple{}, pn.errf("unknown predictor %q (have requested, clairvoyant, ave2, ml)", pname)
	}

	tr.Loss = ml.ELoss
	for _, key := range []string{"over", "under", "weight"} {
		ln := n.at(key)
		if ln == nil {
			continue
		}
		if !isML {
			return core.Triple{}, ln.errf("%s only applies to the ml predictor", key)
		}
		v, err := ln.str()
		if err != nil {
			return core.Triple{}, err
		}
		switch key {
		case "over", "under":
			var b ml.Branch
			switch norm(v) {
			case "lin", "linear":
				b = ml.Linear
			case "sq", "squared":
				b = ml.Squared
			default:
				return core.Triple{}, ln.errf("unknown loss branch %q (have lin, sq)", v)
			}
			if key == "over" {
				tr.Loss.Over = b
			} else {
				tr.Loss.Under = b
			}
		case "weight":
			found := false
			for _, w := range ml.Weightings {
				if norm(v) == norm(w.String()) {
					tr.Loss.Weight = w
					found = true
					break
				}
			}
			if !found {
				return core.Triple{}, ln.errf("unknown weighting %q (have const, shortwide, longnarrow, smallarea, largearea)", v)
			}
		}
	}

	tr.Corrector = correct.RequestedTime{}
	if cn := n.at("corrector"); cn != nil {
		v, err := cn.str()
		if err != nil {
			return core.Triple{}, err
		}
		switch norm(v) {
		case "requestedtime":
			tr.Corrector = correct.RequestedTime{}
		case "incremental":
			tr.Corrector = correct.Incremental{}
		case "recursivedoubling":
			tr.Corrector = correct.RecursiveDoubling{}
		default:
			return core.Triple{}, cn.errf("unknown corrector %q (have requested-time, incremental, recursive-doubling)", v)
		}
	}

	policy := "easy"
	if on := n.at("policy"); on != nil {
		v, err := on.str()
		if err != nil {
			return core.Triple{}, err
		}
		policy = norm(v)
	}
	switch policy {
	case "easy":
	case "fcfs":
		tr.NoBackfill = true
	case "conservative":
		tr.Conservative = true
	default:
		return core.Triple{}, n.at("policy").errf("unknown policy %q (have easy, fcfs, conservative)", policy)
	}

	if bn := n.at("backfill"); bn != nil {
		if policy != "easy" {
			return core.Triple{}, bn.errf("backfill order only applies to the easy policy")
		}
		v, err := bn.str()
		if err != nil {
			return core.Triple{}, err
		}
		switch norm(v) {
		case "fcfs":
			tr.Backfill = sched.FCFSOrder
		case "sjbf":
			tr.Backfill = sched.SJBFOrder
		default:
			return core.Triple{}, bn.errf("unknown backfill order %q (have fcfs, sjbf)", v)
		}
	}
	return tr, nil
}

func (s *Spec) decodeScenarios(n *node) error {
	if n.kind != kindList {
		return n.errf("scenarios must be a list")
	}
	if len(n.items) == 0 {
		return n.errf("scenarios must not be empty (omit the key for the default ladder)")
	}
	seen := map[string]bool{}
	for _, item := range n.items {
		sc, err := decodeScenario(item)
		if err != nil {
			return err
		}
		if seen[sc.Name()] {
			return item.errf("duplicate scenario %q", sc.Name())
		}
		seen[sc.Name()] = true
		s.Scenarios = append(s.Scenarios, sc)
	}
	return nil
}

func intensityNames() string {
	names := make([]string, len(scenario.Intensities))
	for i, in := range scenario.Intensities {
		names[i] = in.Name
	}
	return strings.Join(names, ", ")
}

// decodeScenario handles the three column forms: a named intensity
// (scalar or `intensity:` mapping), a custom generated intensity
// (windows / max_drain_frac / cancel_frac), or a fixed inline script
// (`events:`).
func decodeScenario(n *node) (campaign.Scenario, error) {
	if n.kind == kindScalar {
		in, ok := scenario.IntensityByName(n.scalar)
		if !ok {
			return campaign.Scenario{}, n.errf("unknown intensity %q (have %s)", n.scalar, intensityNames())
		}
		return campaign.Scenario{Intensity: in}, nil
	}
	if n.kind != kindMap {
		return campaign.Scenario{}, n.errf("scenario entries must be intensity names or mappings")
	}
	if in := n.at("intensity"); in != nil {
		if err := n.checkKeys("intensity"); err != nil {
			return campaign.Scenario{}, err
		}
		v, err := in.str()
		if err != nil {
			return campaign.Scenario{}, err
		}
		named, ok := scenario.IntensityByName(v)
		if !ok {
			return campaign.Scenario{}, in.errf("unknown intensity %q (have %s)", v, intensityNames())
		}
		return campaign.Scenario{Intensity: named}, nil
	}

	nameNode := n.at("name")
	if nameNode == nil {
		return campaign.Scenario{}, n.errf("scenario needs a name (or an intensity)")
	}
	name, err := nameNode.str()
	if err != nil {
		return campaign.Scenario{}, err
	}

	if ev := n.at("events"); ev != nil {
		if err := n.checkKeys("name", "events"); err != nil {
			return campaign.Scenario{}, err
		}
		script, err := decodeScript(ev, name)
		if err != nil {
			return campaign.Scenario{}, err
		}
		return campaign.Scenario{Script: script}, nil
	}

	// Custom generated intensity.
	if err := n.checkKeys("name", "windows", "max_drain_frac", "cancel_frac"); err != nil {
		return campaign.Scenario{}, err
	}
	in := scenario.Intensity{Name: name}
	if wn := n.at("windows"); wn != nil {
		v, err := wn.toInt()
		if err != nil {
			return campaign.Scenario{}, err
		}
		if v < 0 {
			return campaign.Scenario{}, wn.errf("windows must be >= 0, got %d", v)
		}
		in.Windows = v
	}
	if fn := n.at("max_drain_frac"); fn != nil {
		v, err := fn.toFloat()
		if err != nil {
			return campaign.Scenario{}, err
		}
		if v < 0 || v > 1 {
			return campaign.Scenario{}, fn.errf("max_drain_frac %v out of [0,1]", v)
		}
		in.MaxDrainFrac = v
	}
	if fn := n.at("cancel_frac"); fn != nil {
		v, err := fn.toFloat()
		if err != nil {
			return campaign.Scenario{}, err
		}
		if v < 0 || v > 1 {
			return campaign.Scenario{}, fn.errf("cancel_frac %v out of [0,1]", v)
		}
		in.CancelFrac = v
	}
	return campaign.Scenario{Intensity: in}, nil
}

// decodeScript builds a fixed scenario.Script from inline events.
func decodeScript(n *node, name string) (*scenario.Script, error) {
	if n.kind != kindList || len(n.items) == 0 {
		return nil, n.errf("events must be a non-empty list")
	}
	b := scenario.NewBuilder(name)
	for _, item := range n.items {
		if item.kind != kindMap {
			return nil, item.errf("events must be mappings (at / action / procs / job_id)")
		}
		if err := item.checkKeys("at", "action", "procs", "job_id"); err != nil {
			return nil, err
		}
		atNode, actNode := item.at("at"), item.at("action")
		if atNode == nil || actNode == nil {
			return nil, item.errf("event needs at and action")
		}
		at, err := atNode.toInt64()
		if err != nil {
			return nil, err
		}
		action, err := actNode.str()
		if err != nil {
			return nil, err
		}
		procs := int64(0)
		if pn := item.at("procs"); pn != nil {
			if procs, err = pn.toInt64(); err != nil {
				return nil, err
			}
		}
		jobID := int64(0)
		if jn := item.at("job_id"); jn != nil {
			if jobID, err = jn.toInt64(); err != nil {
				return nil, err
			}
		}
		switch norm(action) {
		case "drain":
			b.Drain(at, procs)
		case "restore":
			b.Restore(at, procs)
		case "cancel":
			if item.at("job_id") == nil {
				return nil, item.errf("cancel event needs job_id")
			}
			b.Cancel(at, jobID)
		default:
			return nil, actNode.errf("unknown action %q (have drain, restore, cancel)", action)
		}
	}
	script, err := b.Build()
	if err != nil {
		return nil, n.errf("%v", err)
	}
	return script, nil
}

func (s *Spec) decodeOutput(n *node) error {
	if n.kind != kindMap {
		return n.errf("output must be a mapping")
	}
	if err := n.checkKeys("journal", "resume", "perf", "tables", "figures"); err != nil {
		return err
	}
	if jn := n.at("journal"); jn != nil {
		v, err := jn.str()
		if err != nil {
			return err
		}
		s.Output.Journal = v
	}
	if rn := n.at("resume"); rn != nil {
		v, err := rn.toBool()
		if err != nil {
			return err
		}
		s.Output.Resume = v
	}
	if pn := n.at("perf"); pn != nil {
		v, err := pn.toBool()
		if err != nil {
			return err
		}
		s.Output.Perf = v
	}
	if tn := n.at("tables"); tn != nil {
		v, err := tn.toIntList()
		if err != nil {
			return err
		}
		s.Output.Tables = v
	}
	if fn := n.at("figures"); fn != nil {
		v, err := fn.toIntList()
		if err != nil {
			return err
		}
		s.Output.Figures = v
	}
	return nil
}

// ---- node conversion helpers ----

// checkKeys rejects the first key outside the allowed set, pointing at
// its line.
func (n *node) checkKeys(allowed ...string) error {
	if n.kind != kindMap {
		return n.errf("expected a mapping, got a %s", n.kind)
	}
	for _, k := range n.keys {
		ok := false
		for _, a := range allowed {
			if k == a {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("%s:%d: unknown field %q (have %s)", n.file, n.keyLines[k], k, strings.Join(allowed, ", "))
		}
	}
	return nil
}

func (n *node) str() (string, error) {
	if n.kind != kindScalar {
		return "", n.errf("expected a string, got a %s", n.kind)
	}
	if n.scalar == "" {
		return "", n.errf("expected a non-empty string")
	}
	return n.scalar, nil
}

func (n *node) toInt() (int, error) {
	v, err := n.toInt64()
	return int(v), err
}

func (n *node) toInt64() (int64, error) {
	if n.kind != kindScalar {
		return 0, n.errf("expected an integer, got a %s", n.kind)
	}
	v, err := strconv.ParseInt(n.scalar, 10, 64)
	if err != nil {
		return 0, n.errf("expected an integer, got %q", n.scalar)
	}
	return v, nil
}

func (n *node) toUint64() (uint64, error) {
	if n.kind != kindScalar {
		return 0, n.errf("expected an unsigned integer, got a %s", n.kind)
	}
	// Accept 0x hex for seeds, matching the presets' notation.
	v, err := strconv.ParseUint(strings.TrimPrefix(n.scalar, "0x"), base16or10(n.scalar), 64)
	if err != nil {
		return 0, n.errf("expected an unsigned integer, got %q", n.scalar)
	}
	return v, nil
}

func base16or10(s string) int {
	if strings.HasPrefix(s, "0x") {
		return 16
	}
	return 10
}

func (n *node) toFloat() (float64, error) {
	if n.kind != kindScalar {
		return 0, n.errf("expected a number, got a %s", n.kind)
	}
	v, err := strconv.ParseFloat(n.scalar, 64)
	if err != nil {
		return 0, n.errf("expected a number, got %q", n.scalar)
	}
	return v, nil
}

func (n *node) toBool() (bool, error) {
	if n.kind == kindScalar {
		switch n.scalar {
		case "true":
			return true, nil
		case "false":
			return false, nil
		}
	}
	return false, n.errf("expected true or false")
}

func (n *node) toFloatList() ([]float64, error) {
	if n.kind != kindList {
		return nil, n.errf("expected a list")
	}
	out := make([]float64, len(n.items))
	for i, item := range n.items {
		v, err := item.toFloat()
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func (n *node) toIntList() ([]int, error) {
	if n.kind != kindList {
		return nil, n.errf("expected a list")
	}
	out := make([]int, len(n.items))
	for i, item := range n.items {
		v, err := item.toInt()
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
