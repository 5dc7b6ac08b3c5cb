package campaign

import (
	"context"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// RobustnessResult is one cell of the robustness grid: a (workload,
// disruption-intensity, triple) simulation.
type RobustnessResult struct {
	RunResult
	// Intensity names the disruption level ("none", "light", ...).
	Intensity string
	// Scenario summarizes the script the cell ran under.
	Drains       int
	CancelEvents int
}

// Scenario is one column of the robustness grid. A column is either a
// generated disruption level — a scenario.Intensity, from which one
// deterministic script is derived per workload — or a fixed
// scenario.Script replayed identically on every workload (how spec
// files express inline event scripts). Either way every triple within a
// (workload, column) cell faces the same disruption sequence, keeping
// the column comparable across policies.
type Scenario struct {
	// Intensity generates the column's per-workload scripts when Script
	// is nil. Custom levels beyond the named scenario.Intensities ladder
	// are allowed; Intensity.Name labels the column.
	Intensity scenario.Intensity
	// Script, when non-nil, is the column's fixed disruption script,
	// shared verbatim by every workload. Its Name labels the column.
	Script *scenario.Script
}

// Name returns the column label used in results and journal keys.
func (s Scenario) Name() string {
	if s.Script != nil {
		return s.Script.Name
	}
	return s.Intensity.Name
}

// Robustness is the disruption-sweep harness: it runs every triple over
// every workload under every disruption scenario column, with one shared
// deterministic script per (workload, column) pair so triples stay
// comparable within a column.
type Robustness struct {
	// Workloads are the inputs.
	Workloads []*trace.Workload
	// Triples is the heuristic-triple set (defaults to
	// DefaultRobustnessTriples when empty; see TripleAxis).
	Triples []core.Triple
	// Scenarios are the grid's columns (one per scenario.Intensities
	// level when empty; see ScenarioAxis).
	Scenarios []Scenario
	// Seed drives the deterministic script generation.
	Seed uint64
	// Stream runs every cell on the bounded-memory engine; see
	// Campaign.Stream.
	Stream bool
	// Parallelism bounds concurrent simulations (defaults to GOMAXPROCS).
	Parallelism int
	// Progress, when non-nil, is called after every settled cell
	// (concurrently; must be goroutine-safe).
	Progress func(done, total int)
	// Journal, when non-nil, receives every completed cell as it
	// finishes (see Campaign.Journal).
	Journal *Journal
	// Resume holds journaled cells from a previous run, keyed by
	// CellRecord.Key (see LoadJournal).
	Resume map[string]CellRecord
	// Tracer and Profile enable the flight recorder and stage
	// histograms per cell; see Campaign.Tracer and Campaign.Profile.
	Tracer  obs.Tracer
	Profile bool
}

// DefaultRobustnessTriples is the compact comparison set of the
// robustness table: the production baseline, Tsafrir's EASY++, the
// paper's best learning triple, the clairvoyant bound and the
// conservative related-work baseline.
func DefaultRobustnessTriples() []core.Triple {
	return []core.Triple{
		core.EASY(),
		core.EASYPlusPlus(),
		core.PaperBest(),
		core.ClairvoyantSJBF(),
		core.ConservativeBF(),
	}
}

// TripleAxis returns the triples Run grids over: Triples, or
// DefaultRobustnessTriples when it is empty.
func (r *Robustness) TripleAxis() []core.Triple {
	if len(r.Triples) > 0 {
		return r.Triples
	}
	return DefaultRobustnessTriples()
}

// ScenarioAxis returns the columns Run grids over: Scenarios, or one
// generated column per scenario.Intensities level when it is empty.
func (r *Robustness) ScenarioAxis() []Scenario {
	if len(r.Scenarios) > 0 {
		return r.Scenarios
	}
	out := make([]Scenario, len(scenario.Intensities))
	for i, in := range scenario.Intensities {
		out[i] = Scenario{Intensity: in}
	}
	return out
}

// Run executes the grid on the shared cancellable cell loop. Results
// are ordered workload-major, intensity-middle, triple-minor regardless
// of completion order. Cancelling ctx stops the grid gracefully; on
// error Run returns every completed cell (in grid order) plus the
// joined error — see Campaign.Run.
func (r *Robustness) Run(ctx context.Context) ([]RobustnessResult, error) {
	triples, scenarios := r.TripleAxis(), r.ScenarioAxis()
	ns, nt := len(scenarios), len(triples)

	// One script per (workload, column), shared by every triple in the
	// cell so the disruption sequence is identical across policies.
	// Generated-column script seeds derive from r.Seed exactly as
	// before, independent of the per-cell grid seeds; cell keys still
	// fingerprint r.Seed (via the derived cell seed), so a journal from
	// a different -seed run can never satisfy a resume.
	scripts := make([]*scenario.Script, len(r.Workloads)*ns)
	for wi, w := range r.Workloads {
		for ii, sc := range scenarios {
			if sc.Script != nil {
				scripts[wi*ns+ii] = sc.Script
				continue
			}
			seed := r.Seed ^ (uint64(wi)*0x9e3779b97f4a7c15 + uint64(ii)*0xbf58476d1ce4e5b9)
			scripts[wi*ns+ii] = scenario.Generate(w, sc.Intensity, seed)
		}
	}

	// Cell i runs triple i%nt under script i/nt, on workload i/(ns*nt).
	g := grid{
		total:       len(scripts) * nt,
		parallelism: r.Parallelism,
		seed:        r.Seed,
		progress:    r.Progress,
		journal:     r.Journal,
		resume:      r.Resume,
	}
	return runCells(ctx, g, func(i int) CellRecord {
		w := r.Workloads[i/(ns*nt)]
		drains, _, cancels := scripts[i/nt].Counts()
		return CellRecord{
			Kind: "robustness", Workload: w.Name, JobCount: len(w.Jobs), Triple: triples[i%nt].Name(),
			Intensity: scenarios[(i/nt)%ns].Name(), Drains: drains, CancelEvents: cancels,
		}
	}, func(i int, rec *CellRecord) error {
		return runOne(rec, r.Workloads[i/(ns*nt)], triples[i%nt], scripts[i/nt], r.Stream, r.Tracer, r.Profile)
	}, func(i int, rec CellRecord) RobustnessResult {
		return RobustnessResult{
			RunResult:    rec.runResult(triples[i%nt]),
			Intensity:    rec.Intensity,
			Drains:       rec.Drains,
			CancelEvents: rec.CancelEvents,
		}
	})
}
