package ml

import (
	"fmt"
	"math"
)

// Branch selects the basis loss applied to one side of the prediction
// error (Section 4.2 considers the linear and squared losses).
type Branch int

const (
	// Linear is L(z) = z.
	Linear Branch = iota
	// Squared is L(z) = z².
	Squared
)

// String returns "lin" or "sq".
func (b Branch) String() string {
	if b == Squared {
		return "sq"
	}
	return "lin"
}

// eval computes the branch loss for z >= 0.
func (b Branch) eval(z float64) float64 {
	if b == Squared {
		return z * z
	}
	return z
}

// deriv computes dL/dz for z >= 0.
func (b Branch) deriv(z float64) float64 {
	if b == Squared {
		return 2 * z
	}
	return 1
}

// Weighting selects the per-job weighting factor γj of Table 3.
type Weighting int

const (
	// WeightConstant: γ = 1.
	WeightConstant Weighting = iota
	// WeightShortWide: γ = 5 + log(q/p) — short jobs with large resource
	// request should be well-predicted.
	WeightShortWide
	// WeightLongNarrow: γ = 5 + log(p/q) — long jobs with small resource
	// request should be well-predicted.
	WeightLongNarrow
	// WeightSmallArea: γ = 11 + log(1/(q·p)) — jobs of small area should
	// be well-predicted.
	WeightSmallArea
	// WeightLargeArea: γ = log(q·p) — jobs of large area should be
	// well-predicted. This is the E-Loss weighting.
	WeightLargeArea
)

// Weightings lists all Table-3 schemes in order.
var Weightings = []Weighting{WeightConstant, WeightShortWide, WeightLongNarrow, WeightSmallArea, WeightLargeArea}

// String names the weighting scheme.
func (w Weighting) String() string {
	switch w {
	case WeightConstant:
		return "const"
	case WeightShortWide:
		return "shortwide"
	case WeightLongNarrow:
		return "longnarrow"
	case WeightSmallArea:
		return "smallarea"
	case WeightLargeArea:
		return "largearea"
	}
	return "unknown"
}

// minGamma keeps weights strictly positive; Table 3's constants "ensure
// positivity with typical running times", and this floor guards the
// atypical ones.
const minGamma = 0.01

// Gamma evaluates the weighting factor for a job with actual running
// time p (seconds) and resource request q (processors).
func (w Weighting) Gamma(p, q float64) float64 {
	if p < 1 {
		p = 1
	}
	if q < 1 {
		q = 1
	}
	var g float64
	switch w {
	case WeightConstant:
		g = 1
	case WeightShortWide:
		g = 5 + math.Log(q/p)
	case WeightLongNarrow:
		g = 5 + math.Log(p/q)
	case WeightSmallArea:
		g = 11 + math.Log(1/(q*p))
	case WeightLargeArea:
		g = math.Log(q * p)
	default:
		g = 1
	}
	if g < minGamma {
		g = minGamma
	}
	return g
}

// Loss is one member of the paper's loss family: a basis loss per error
// direction plus a per-job weighting scheme.
//
// Direction convention (following the paper's own vocabulary in
// Section 2.2): the prediction error is err = f(x) − p. err > 0 is an
// over-prediction, err < 0 an under-prediction. The E-Loss (Equation 3)
// applies the squared branch to over-predictions and the linear branch to
// under-predictions, which is what "discourages over-prediction" in the
// analysis of Section 6.4.
type Loss struct {
	// Over is applied to over-predictions (f(x) >= p).
	Over Branch
	// Under is applied to under-predictions (f(x) < p).
	Under Branch
	// Weight is the γj scheme.
	Weight Weighting
}

// ELoss is the cross-validated winner of Section 6.3.3: squared
// over-prediction branch, linear under-prediction branch, large-area
// weighting. (The paper prints the weight as log(rj·pj), an apparent typo
// for the Table-3 "large area" factor log(qj·pj); see DESIGN.md.)
var ELoss = Loss{Over: Squared, Under: Linear, Weight: WeightLargeArea}

// SquaredLoss is the standard symmetric squared regression loss with
// constant weights, the "Squared Loss Regression" baseline of Figure 4/5.
var SquaredLoss = Loss{Over: Squared, Under: Squared, Weight: WeightConstant}

// Name returns a stable identifier such as "over=sq,under=lin,w=largearea".
func (l Loss) Name() string {
	return fmt.Sprintf("over=%s,under=%s,w=%s", l.Over, l.Under, l.Weight)
}

// Eval computes the weighted loss of predicting pred when the actual
// running time is actual, for a job requesting q processors.
func (l Loss) Eval(pred, actual, q float64) float64 {
	gamma := l.Weight.Gamma(actual, q)
	err := pred - actual
	if err >= 0 {
		return gamma * l.Over.eval(err)
	}
	return gamma * l.Under.eval(-err)
}

// Grad computes d Eval / d pred.
func (l Loss) Grad(pred, actual, q float64) float64 {
	gamma := l.Weight.Gamma(actual, q)
	err := pred - actual
	if err >= 0 {
		return gamma * l.Over.deriv(err)
	}
	return -gamma * l.Under.deriv(-err)
}

// AllLosses enumerates the paper's full 2×2×5 = 20-member loss family
// (Table 5).
func AllLosses() []Loss {
	var out []Loss
	for _, over := range []Branch{Linear, Squared} {
		for _, under := range []Branch{Linear, Squared} {
			for _, w := range Weightings {
				out = append(out, Loss{Over: over, Under: under, Weight: w})
			}
		}
	}
	return out
}
