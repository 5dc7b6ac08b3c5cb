// Package core exposes the paper's primary contribution as a small API:
// the heuristic triple (prediction technique, correction mechanism,
// backfilling variant) and the named configurations the evaluation is
// built around — plain EASY, EASY++ (Tsafrir et al.), the clairvoyant
// bounds, and the cross-validated winner "EASY-SJBF + E-Loss learning +
// Incremental correction" of Section 6.3.3.
//
// A Triple is a value describing the configuration; Config() instantiates
// the stateful pieces (fresh predictor state per simulation) so one
// Triple can be replayed across workloads.
package core

import (
	"fmt"
	"strings"

	"repro/internal/correct"
	"repro/internal/ml"
	"repro/internal/predict"
	"repro/internal/sched"
	"repro/internal/sim"
)

// PredictorKind enumerates the prediction techniques of Section 6.2.
type PredictorKind int

const (
	// PredClairvoyant uses the actual running time pj.
	PredClairvoyant PredictorKind = iota
	// PredRequested uses the user requested time p̃j.
	PredRequested
	// PredAve2 uses the average of the user's two last running times.
	PredAve2
	// PredLearning uses the Section-4 regression model.
	PredLearning
)

// String names the predictor kind.
func (k PredictorKind) String() string {
	switch k {
	case PredClairvoyant:
		return "Clairvoyant"
	case PredRequested:
		return "RequestedTime"
	case PredAve2:
		return "AVE2"
	case PredLearning:
		return "ML"
	}
	return "unknown"
}

// Triple is one heuristic triple: who predicts, who corrects, who
// schedules.
type Triple struct {
	// Predictor selects the prediction technique.
	Predictor PredictorKind
	// Loss configures the learning predictor (ignored otherwise).
	Loss ml.Loss
	// Corrector is the correction mechanism.
	Corrector correct.Corrector
	// Backfill is the EASY scan order.
	Backfill sched.Order
	// NoBackfill selects plain FCFS instead of EASY (used for the
	// clairvoyant FCFS column of Table 6).
	NoBackfill bool
	// Conservative selects conservative backfilling instead of EASY
	// (the related-work baseline; Backfill is ignored).
	Conservative bool
}

// Name renders the triple compactly, e.g.
// "EASY-SJBF/ML[over=sq,under=lin,w=largearea]/Incremental".
func (t Triple) Name() string { return t.Config().Name() }

// NewPredictor instantiates fresh predictor state.
func (t Triple) NewPredictor() predict.Predictor {
	switch t.Predictor {
	case PredClairvoyant:
		return predict.NewClairvoyant()
	case PredRequested:
		return predict.NewRequestedTime()
	case PredAve2:
		return predict.NewUserAverage(2)
	default:
		return predict.NewLearning(t.Loss)
	}
}

// Policy instantiates fresh scheduling-policy state (policies are
// stateful scheduling sessions; one instance per simulation).
func (t Triple) Policy() sched.Policy {
	if t.NoBackfill {
		return sched.NewFCFS()
	}
	if t.Conservative {
		return sched.NewConservative()
	}
	return sched.NewEASY(t.Backfill)
}

// Config builds a simulation configuration with fresh state.
func (t Triple) Config() sim.Config {
	corr := t.Corrector
	if corr == nil {
		corr = correct.RequestedTime{}
	}
	return sim.Config{Policy: t.Policy(), Predictor: t.NewPredictor(), Corrector: corr}
}

// EASY is the standard EASY backfilling baseline: requested times, FCFS
// backfill order. (Requested-time predictions never expire, so the
// corrector is irrelevant.)
func EASY() Triple {
	return Triple{Predictor: PredRequested, Corrector: correct.RequestedTime{}, Backfill: sched.FCFSOrder}
}

// EASYPlusPlus is Tsafrir et al.'s EASY++: AVE2 predictions, Incremental
// correction, SJBF backfill order.
func EASYPlusPlus() Triple {
	return Triple{Predictor: PredAve2, Corrector: correct.Incremental{}, Backfill: sched.SJBFOrder}
}

// ClairvoyantEASY is EASY with perfect running-time knowledge (Table 1's
// EASY-Clairvoyant; Table 6's "Clairvoyant FCFS" column).
func ClairvoyantEASY() Triple {
	return Triple{Predictor: PredClairvoyant, Corrector: correct.RequestedTime{}, Backfill: sched.FCFSOrder}
}

// ClairvoyantSJBF is EASY-SJBF with perfect knowledge (Table 6's
// "Clairvoyant SJBF" column) — the strongest configuration observed.
func ClairvoyantSJBF() Triple {
	return Triple{Predictor: PredClairvoyant, Corrector: correct.RequestedTime{}, Backfill: sched.SJBFOrder}
}

// PaperBest is the cross-validated winner of Section 6.3.3: the E-Loss
// learning predictor, Incremental correction and EASY-SJBF.
func PaperBest() Triple {
	return Triple{Predictor: PredLearning, Loss: ml.ELoss, Corrector: correct.Incremental{}, Backfill: sched.SJBFOrder}
}

// ConservativeBF is conservative backfilling with requested times — the
// related-work baseline of Section 5, kept in the robustness campaign to
// see how per-job reservations fare under platform churn.
func ConservativeBF() Triple {
	return Triple{Predictor: PredRequested, Corrector: correct.RequestedTime{}, Conservative: true}
}

// TripleNames lists the names TripleByName accepts, aliases in
// parentheses.
const TripleNames = "easy, easy++, best (paper-best), clairvoyant (clairvoyant-easy), clairvoyant-sjbf, conservative"

// TripleByName returns the named triple. Matching ignores case and the
// separators '-', '_' and ' ', so "paper-best", "PaperBest" and
// "paper_best" all name PaperBest.
func TripleByName(name string) (Triple, error) {
	key := strings.Map(func(r rune) rune {
		if r == '-' || r == '_' || r == ' ' {
			return -1
		}
		return r
	}, strings.ToLower(name))
	switch key {
	case "easy":
		return EASY(), nil
	case "easy++":
		return EASYPlusPlus(), nil
	case "best", "paperbest":
		return PaperBest(), nil
	case "clairvoyant", "clairvoyanteasy":
		return ClairvoyantEASY(), nil
	case "clairvoyantsjbf":
		return ClairvoyantSJBF(), nil
	case "conservative":
		return ConservativeBF(), nil
	}
	return Triple{}, fmt.Errorf("unknown triple %q (have %s)", name, TripleNames)
}

// CampaignTriples enumerates the full experiment campaign of Section 6.2
// for one log: every learning loss (20) × correction (3) × backfill
// order (2), plus AVE2 under every correction and order, plus the
// requested-time and clairvoyant references under both orders — 130
// simulations (the paper reports 128; the delta is the two extra
// clairvoyant reference runs kept for Table 6's bound columns).
func CampaignTriples() []Triple {
	var out []Triple
	orders := []sched.Order{sched.FCFSOrder, sched.SJBFOrder}
	for _, order := range orders {
		out = append(out,
			Triple{Predictor: PredRequested, Corrector: correct.RequestedTime{}, Backfill: order},
			Triple{Predictor: PredClairvoyant, Corrector: correct.RequestedTime{}, Backfill: order},
		)
		for _, corr := range correct.All() {
			out = append(out, Triple{Predictor: PredAve2, Corrector: corr, Backfill: order})
			for _, loss := range ml.AllLosses() {
				out = append(out, Triple{Predictor: PredLearning, Loss: loss, Corrector: corr, Backfill: order})
			}
		}
	}
	return out
}
