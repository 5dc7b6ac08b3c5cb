// Package spec is the declarative experiment-spec subsystem: one YAML
// file describes a full experiment — workloads (named presets, scaled,
// or inline generator configs), heuristic triples, disruption scenarios,
// grid dimensions (seed, repeats) and output settings — and resolves
// into the existing campaign/workload/scenario structures without
// duplicating their logic. Specs compose: `include` pulls in a base
// spec (the nightly spec extends the default robustness sweep this
// way), with the including file's fields overriding the included ones;
// command-line flags override both. Validation is strict — unknown
// fields, bad names and malformed values are rejected with
// file:line-positional errors, and Check holds the rules that tie the
// grid's fields together once the flags are applied.
//
// The accepted format is a strict YAML subset parsed by this package
// (see yaml.go); the workload and clients schema is documented in
// docs/WORKLOADS.md, the rest in the repository README, and both are
// exercised by the canonical files under specs/.
package spec

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Spec is a loaded, validated experiment spec, still cheap: workloads
// are held as generator configurations, not generated traces, so a
// dry-run validation (or gentrace) never pays for trace generation.
// The scaling fields (Jobs, Seed, Parallelism, Output) may be
// overridden by command-line flags between Load and Workloads.
type Spec struct {
	// Path is the file the spec was loaded from.
	Path string
	// Kind selects the grid: "campaign" (the paper tables) or
	// "robustness" (the disruption sweep).
	Kind string
	// Seed is the grid base seed.
	Seed uint64
	// Repeats reruns the robustness grid under derived seeds and
	// averages cells (always 1 for campaign grids).
	Repeats int
	// Jobs is the default per-preset scaling (0 = full Table-4 sizes).
	Jobs int
	// Parallelism bounds concurrent simulations (0 = GOMAXPROCS).
	Parallelism int
	// Stream runs every cell on the bounded-memory engine (see
	// campaign.Campaign.Stream): same tables, O(live jobs) per cell.
	Stream bool
	// Workloads are the grid's inputs.
	Workloads []WorkloadSpec
	// Triples is the heuristic-triple set (nil = the kind's default).
	Triples []core.Triple
	// Scenarios are the robustness columns (nil = the default ladder).
	Scenarios []campaign.Scenario
	// Clusters describes a federated platform (campaign kind only;
	// nil = classic single-machine runs on each workload's own machine).
	Clusters []platform.Cluster
	// Routings lists the routing policies to grid over when Clusters is
	// set (nil = round-robin).
	Routings []string
	// Output carries journaling and report settings.
	Output Output
	// Trace carries the flight-recorder settings.
	Trace Trace
	// Serve carries the live-daemon settings (nil = no serve section).
	Serve *Serve

	// pos holds the file:line of each field Check's rules name, for the
	// fields the spec file set; a field set by a flag has none.
	pos map[string]string
}

// Serve is the spec's serve section: the configuration cmd/schedd
// -spec reads to start a live scheduling daemon.
type Serve struct {
	// Addr is the HTTP listen address (default "localhost:8080").
	Addr string
	// MaxProcs is the machine size (required).
	MaxProcs int64
	// Scale is the time mode: 0 = virtual time (clients state instants),
	// >0 = scaled wall time, Scale virtual seconds per wall second.
	Scale float64
	// Triple is the heuristic triple the daemon schedules with
	// (default easy++). A named entry must expand to exactly one triple.
	Triple core.Triple
	// Clients names the traffic sources for the per-client metric split.
	Clients []string
}

// Trace is the spec's trace section: the flight-recorder destination
// and the per-stage latency profiling switch (see cmd/campaign -trace
// and the README Observability section).
type Trace struct {
	// File is the structured decision-trace JSONL destination ("" = off).
	File string
	// Profile collects the per-stage latency histograms rendered by the
	// -perf summary (output.perf implies it at the CLI layer).
	Profile bool
}

// WorkloadSpec is one workload entry: a preset reference (optionally
// rescaled or reseeded) or an inline generator config.
type WorkloadSpec struct {
	// Preset names a Table-4 preset; empty means Config is inline.
	Preset string
	// Jobs overrides the spec-level scaling for this entry (-1 = inherit).
	Jobs int
	// Seed overrides the preset's generator seed (0 = keep).
	Seed uint64
	// Config is the inline generator configuration (Preset == "").
	Config *workload.Config
	// Clients is the entry's multi-client decomposition (nil = a single
	// homogeneous population). See docs/WORKLOADS.md for the schema.
	Clients []workload.Client
}

// Output is the spec's output section plus rendering selections.
type Output struct {
	// Journal is the JSONL result-journal path ("" = none).
	Journal string
	// Resume skips cells already recorded in the journal.
	Resume bool
	// Perf prints the per-workload performance counters.
	Perf bool
	// Tables and Figures select paper tables/figures (campaign kind;
	// both empty = all).
	Tables  []int
	Figures []int
}

// Overrides carries command-line overrides applied on top of a loaded
// spec — the outermost layer of the precedence chain flags > spec >
// include. Nil pointer fields leave the spec's value in place.
type Overrides struct {
	Jobs        *int
	Seed        *uint64
	Parallelism *int
	Stream      *bool
	Journal     *string
	Resume      *bool
	Perf        *bool
	Tables      []int
	Figures     []int
	// Clusters and Routings replace the spec's federation axis wholesale
	// (non-nil slices override, matching the list-merge semantics).
	Clusters []platform.Cluster
	Routings []string
	// Trace overrides the spec's trace.file destination.
	Trace *string
}

// Apply overlays the overrides onto the spec. A field it sets is the
// flag's from then on: Check names it by its flag.
func (s *Spec) Apply(o Overrides) {
	if o.Jobs != nil {
		s.Jobs = *o.Jobs
		// The spec-level scaling now speaks for every preset entry:
		// a -jobs flag rescales the whole grid, as it does without -spec.
		for i := range s.Workloads {
			if s.Workloads[i].Preset != "" {
				s.Workloads[i].Jobs = -1
			}
		}
	}
	if o.Seed != nil {
		s.Seed = *o.Seed
	}
	if o.Parallelism != nil {
		s.Parallelism = *o.Parallelism
	}
	if o.Stream != nil {
		s.Stream = *o.Stream
	}
	if o.Journal != nil {
		s.Output.Journal = *o.Journal
	}
	if o.Resume != nil {
		s.Output.Resume = *o.Resume
		delete(s.pos, "resume")
	}
	if o.Perf != nil {
		s.Output.Perf = *o.Perf
	}
	if len(o.Tables) > 0 {
		s.Output.Tables = o.Tables
		delete(s.pos, "tables")
	}
	if len(o.Figures) > 0 {
		s.Output.Figures = o.Figures
		delete(s.pos, "figures")
	}
	if len(o.Clusters) > 0 {
		s.Clusters = o.Clusters
		delete(s.pos, "clusters")
	}
	if len(o.Routings) > 0 {
		s.Routings = o.Routings
		delete(s.pos, "routing")
	}
	if o.Trace != nil {
		s.Trace.File = *o.Trace
	}
}

// Load reads, composes (resolving includes) and validates a spec file.
func Load(path string) (*Spec, error) {
	tree, err := loadTree(path, nil)
	if err != nil {
		return nil, err
	}
	s := &Spec{Path: path}
	if err := s.decode(tree); err != nil {
		return nil, err
	}
	return s, nil
}

// flagNames names the command-line flag that sets each field Check's
// rules name, for the fields a flag can set.
var flagNames = map[string]string{
	"clusters": "-clusters", "routing": "-routing", "resume": "-resume",
	"tables": "-table", "figures": "-figure",
}

// Check enforces the grid's cross-field rules: the ones that tie the
// kind, platform, selections and journal together, which a flag can
// break as easily as a file. A caller that runs the grid runs it once,
// after laying its flags over the spec (Apply), so the file and the
// flags answer to the same rules. A broken rule names the field as the
// file spells it, at its file:line, or by the flag that set it.
func (s *Spec) Check() error {
	robustness, federated := s.Kind == "robustness", s.Federated()
	switch {
	case s.Repeats > 1 && !robustness:
		return s.ruleErr("repeats", "%s only applies to robustness grids (the undisrupted campaign is seed-independent)")
	case len(s.Scenarios) > 0 && !robustness:
		return s.ruleErr("scenarios", "%s only apply to robustness grids (set kind: robustness)")
	case federated && robustness:
		return s.ruleErr("clusters", "%s only apply to campaign grids (the robustness sweep is single-machine)")
	case len(s.Routings) > 0 && !federated:
		return s.ruleErr("routing", "%s needs clusters (a single-machine grid has nothing to route)")
	}
	for _, sel := range []struct {
		key      string
		selected []int
		valid    []int
	}{
		{"tables", s.Output.Tables, []int{1, 6, 7, 8}},
		{"figures", s.Output.Figures, []int{3, 4, 5}},
	} {
		switch {
		case len(sel.selected) == 0:
		case robustness:
			return s.ruleErr(sel.key, "%s only apply to campaign grids (robustness renders its own table)")
		case federated:
			return s.ruleErr(sel.key, "%s do not apply to a federated campaign (it renders the federated table)")
		}
		for _, v := range sel.selected {
			if !slices.Contains(sel.valid, v) {
				return s.ruleErr(sel.key, "unknown %s entry %d (have %v)", v, sel.valid)
			}
		}
	}
	if s.Output.Resume && s.Output.Journal == "" {
		return s.ruleErr("resume", "%s needs a journal: pass -out (or set output.journal in the spec)")
	}
	return nil
}

// ruleErr reports a broken rule about the field key. format's first
// verb receives the field's name: the key at its file:line when the
// spec file set it, else the flag that set it.
func (s *Spec) ruleErr(key, format string, args ...any) error {
	if pos, ok := s.pos[key]; ok {
		return fmt.Errorf("%s: "+format, append([]any{pos, key}, args...)...)
	}
	if flag, ok := flagNames[key]; ok {
		key = flag
	}
	return fmt.Errorf(format, append([]any{key}, args...)...)
}

// loadTree parses path and merges its include chain, detecting cycles.
// stack holds the absolute paths currently being loaded.
func loadTree(path string, stack []string) (*node, error) {
	abs, err := filepath.Abs(path)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	for _, seen := range stack {
		if seen == abs {
			return nil, fmt.Errorf("spec: include cycle: %s includes itself (chain: %s)", path, chain(stack, abs))
		}
	}
	content, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	tree, err := parseYAML(path, string(content))
	if err != nil {
		return nil, err
	}

	inc := tree.at("include")
	if inc == nil {
		return tree, nil
	}
	var paths []*node
	switch inc.kind {
	case kindScalar:
		paths = []*node{inc}
	case kindList:
		paths = inc.items
	default:
		return nil, inc.errf("include must be a path or a list of paths")
	}
	// Later includes override earlier ones; the including file
	// overrides them all.
	var base *node
	for _, p := range paths {
		if p.kind != kindScalar || p.scalar == "" {
			return nil, p.errf("include entries must be file paths")
		}
		child, err := loadTree(filepath.Join(filepath.Dir(path), p.scalar), append(stack, abs))
		if err != nil {
			return nil, err
		}
		base = mergeTree(base, child)
	}
	delete(tree.fields, "include")
	tree.keys = deleteKey(tree.keys, "include")
	return mergeTree(base, tree), nil
}

func chain(stack []string, last string) string {
	s := ""
	for _, p := range stack {
		s += filepath.Base(p) + " -> "
	}
	return s + filepath.Base(last)
}

func deleteKey(keys []string, key string) []string {
	out := keys[:0]
	for _, k := range keys {
		if k != key {
			out = append(out, k)
		}
	}
	return out
}

// mergeTree overlays over on base: mappings merge key-wise
// (recursively), everything else — scalars and lists — is replaced
// wholesale. Replacing lists keeps override semantics predictable: an
// overriding spec states its full workload/triple/scenario set rather
// than appending to an invisible one.
func mergeTree(base, over *node) *node {
	if base == nil {
		return over
	}
	if over == nil {
		return base
	}
	if base.kind != kindMap || over.kind != kindMap {
		return over
	}
	merged := &node{file: over.file, line: over.line, kind: kindMap,
		fields: map[string]*node{}, keyLines: map[string]int{}}
	for _, k := range base.keys {
		merged.keys = append(merged.keys, k)
		merged.fields[k] = base.fields[k]
		merged.keyLines[k] = base.keyLines[k]
	}
	for _, k := range over.keys {
		if prev, ok := merged.fields[k]; ok {
			merged.fields[k] = mergeTree(prev, over.fields[k])
		} else {
			merged.keys = append(merged.keys, k)
			merged.fields[k] = over.fields[k]
		}
		merged.keyLines[k] = over.keyLines[k]
	}
	return merged
}

// ResolvedWorkload pairs a resolved generator configuration with its
// multi-client decomposition (nil Clients = single population).
type ResolvedWorkload struct {
	Config  workload.Config
	Clients []workload.Client
}

// ResolvedWorkloads resolves the workload entries into generator
// configurations plus their clients blocks, applying the spec-level
// scaling (after any flag overrides), and cross-validates the scenario
// scripts against each machine they will run on.
func (s *Spec) ResolvedWorkloads() ([]ResolvedWorkload, error) {
	entries := s.Workloads
	if len(entries) == 0 {
		// Default: every Table-4 preset at the spec's scaling.
		for _, name := range workload.PresetNames() {
			entries = append(entries, WorkloadSpec{Preset: name, Jobs: -1})
		}
	}
	rs := make([]ResolvedWorkload, len(entries))
	for i, e := range entries {
		rs[i].Clients = e.Clients
		if e.Preset == "" {
			cfg := *e.Config
			if err := cfg.Validate(); err != nil {
				return nil, fmt.Errorf("spec: %s: workload %q: %w", s.Path, cfg.Name, err)
			}
			rs[i].Config = cfg
			continue
		}
		jobs := e.Jobs
		if jobs < 0 {
			jobs = s.Jobs
		}
		cfg, err := workload.Scaled(e.Preset, jobs)
		if err != nil {
			return nil, fmt.Errorf("spec: %s: %w", s.Path, err)
		}
		if e.Seed != 0 {
			cfg.Seed = e.Seed
		}
		rs[i].Config = cfg
	}
	seen := map[string]bool{}
	for _, r := range rs {
		if seen[r.Config.Name] {
			return nil, fmt.Errorf("spec: %s: duplicate workload name %q", s.Path, r.Config.Name)
		}
		seen[r.Config.Name] = true
	}
	// A fixed script that drains more than it restores would leave jobs
	// stranded and fail mid-grid; reject it per machine up front.
	for _, sc := range s.Scenarios {
		if sc.Script == nil {
			continue
		}
		for _, r := range rs {
			if !sc.Script.Balanced(r.Config.MaxProcs) {
				return nil, fmt.Errorf("spec: %s: scenario %q does not restore its drains on %s (%d processors)",
					s.Path, sc.Script.Name, r.Config.Name, r.Config.MaxProcs)
			}
		}
	}
	return rs, nil
}

// WorkloadConfigs resolves the workload entries into bare generator
// configurations — ResolvedWorkloads without the clients axis, kept for
// callers that only need the configs (validation, gentrace -preset).
func (s *Spec) WorkloadConfigs() ([]workload.Config, error) {
	rs, err := s.ResolvedWorkloads()
	if err != nil {
		return nil, err
	}
	cfgs := make([]workload.Config, len(rs))
	for i := range rs {
		cfgs[i] = rs[i].Config
	}
	return cfgs, nil
}

// GenerateWorkloads resolves and generates the spec's workloads — the
// expensive step a validate-only run skips. Entries with a clients
// block generate through the multi-client merge and carry the client
// names on the returned workload.
func (s *Spec) GenerateWorkloads() ([]*trace.Workload, error) {
	rs, err := s.ResolvedWorkloads()
	if err != nil {
		return nil, err
	}
	ws := make([]*trace.Workload, len(rs))
	for i, r := range rs {
		var w *trace.Workload
		if len(r.Clients) > 0 {
			w, err = workload.GenerateMulti(r.Config, r.Clients)
		} else {
			w, err = workload.Generate(r.Config)
		}
		if err != nil {
			return nil, fmt.Errorf("spec: %s: %w", s.Path, err)
		}
		ws[i] = w
	}
	return ws, nil
}

// Campaign builds the paper-table harness from the spec, on the
// spec's federated platforms when it has clusters.
func (s *Spec) Campaign(ws []*trace.Workload) *campaign.Campaign {
	return &campaign.Campaign{
		Workloads:   ws,
		Triples:     s.Triples,
		Federations: s.Federations(),
		Parallelism: s.Parallelism,
		Seed:        s.Seed,
		Stream:      s.Stream,
	}
}

// Federated reports whether the spec describes a federated platform.
func (s *Spec) Federated() bool {
	return len(s.Clusters) > 0
}

// Federations expands the clusters/routing axes into the campaign's
// federation axis: one federation per routing policy, all sharing the
// spec's cluster topology. Nil when the spec is single-machine.
func (s *Spec) Federations() []campaign.Federation {
	if !s.Federated() {
		return nil
	}
	routings := s.Routings
	if len(routings) == 0 {
		routings = []string{"round-robin"}
	}
	out := make([]campaign.Federation, len(routings))
	for i, r := range routings {
		out[i] = campaign.Federation{Clusters: s.Clusters, Routing: r}
	}
	return out
}

// Robustness builds the disruption-sweep harness from the spec for one
// repeat (repeat 0 runs at Seed, repeat r at Seed+r).
func (s *Spec) Robustness(ws []*trace.Workload, repeat int) *campaign.Robustness {
	return &campaign.Robustness{
		Workloads:   ws,
		Triples:     s.Triples,
		Scenarios:   s.Scenarios,
		Seed:        s.Seed + uint64(repeat),
		Parallelism: s.Parallelism,
		Stream:      s.Stream,
	}
}

// TripleCount returns the grid's triple-axis size (resolving defaults).
func (s *Spec) TripleCount() int {
	if s.Kind == "robustness" {
		return len(s.Robustness(nil, 0).TripleAxis())
	}
	return len(s.Campaign(nil).TripleAxis())
}

// ScenarioCount returns the scenario-axis size (1 for campaign grids).
func (s *Spec) ScenarioCount() int {
	if s.Kind != "robustness" {
		return 1
	}
	return len(s.Robustness(nil, 0).ScenarioAxis())
}
