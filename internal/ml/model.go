package ml

import "math"

// Config parameterizes the on-line regression model.
type Config struct {
	// Loss is the (asymmetric, weighted) training loss.
	Loss Loss
	// Eta is NAG's base learning rate.
	Eta float64
	// Lambda is the ℓ2 regularization strength of Equation (2).
	Lambda float64
	// Features is the raw feature count (defaults to FeatureCount).
	Features int
	// Degree is the polynomial basis degree: 2 (the paper's model,
	// default) or 1 (linear-only ablation).
	Degree int
	// GradClip bounds the loss derivative at GradClip times the running
	// mean |target|. Squared branches produce unbounded derivatives —
	// one badly over-predicted short job otherwise yanks the model far
	// below zero and the on-line learner never recovers the conditional
	// structure. 0 disables clipping; the default is 4.
	GradClip float64
}

// DefaultConfig returns the configuration used across the experiments:
// the given loss with the repository's tuned learning rate and
// regularization. The values were selected once on synthetic data and
// kept fixed for all workloads, mirroring the paper's single
// hyper-parameter setting across logs.
func DefaultConfig(loss Loss) Config {
	return Config{Loss: loss, Eta: 1.0, Lambda: 1e-6, Features: FeatureCount, GradClip: 4}
}

// Model is the paper's prediction function f(w, x) = wᵀΦ(x) (Equation 1)
// trained on-line by NAG on the cumulative weighted loss (Equation 2).
// It is not safe for concurrent use; each simulation owns one.
type Model struct {
	cfg   Config
	basis *Basis
	opt   *NAG
	ySum  float64 // running sum of |actual| for target-scale invariance
	yN    float64
}

// NewModel builds an untrained model.
func NewModel(cfg Config) *Model {
	if cfg.Features <= 0 {
		cfg.Features = FeatureCount
	}
	if cfg.Eta <= 0 {
		cfg.Eta = 1.0
	}
	if cfg.Degree == 0 {
		cfg.Degree = 2
	}
	basis := NewBasisDegree(cfg.Features, cfg.Degree)
	return &Model{cfg: cfg, basis: basis, opt: NewNAG(basis.Dim(), cfg.Eta, cfg.Lambda)}
}

// Loss returns the model's training loss.
func (m *Model) Loss() Loss { return m.cfg.Loss }

// Predict evaluates f(w, x) on a raw feature vector. The result is an
// unbounded regression value; callers clamp it into [1, p̃j]. Φ(x) is
// never built (see Basis.Dot), so only training pays for an expansion.
func (m *Model) Predict(x []float64) float64 {
	return m.basis.Dot(m.opt.w, x)
}

// Observe performs one on-line training step for a completed job with
// raw features x, actual running time actual (seconds) and resource
// request q (processors). It returns the model's prediction immediately
// before the update, which tests use to measure progressive validation
// accuracy.
func (m *Model) Observe(x []float64, actual, q float64) float64 {
	// Scale steps to the mean target magnitude rather than the max: HPC
	// running times span five orders of magnitude, and a max-based scale
	// lets one multi-day job dictate step sizes for everything after it.
	m.ySum += math.Abs(actual)
	m.yN++
	m.opt.SetTargetScale(m.ySum / m.yN)
	phi := m.basis.Expand(x)
	return m.opt.Step(phi, func(pred float64) float64 {
		g := m.cfg.Loss.Grad(pred, actual, q)
		if m.cfg.GradClip > 0 {
			clip := m.cfg.GradClip * m.ySum / m.yN
			if g > clip {
				g = clip
			} else if g < -clip {
				g = -clip
			}
		}
		return g
	})
}
