package ml

import "math"

// NAG is the Normalized Adaptive Gradient optimizer of Ross, Mineiro and
// Langford ("Normalized Online Learning", UAI 2013), the algorithm the
// paper trains its regression model with. NAG is a stochastic gradient
// method that is invariant to (adversarial) per-coordinate feature
// scaling: each coordinate keeps a running maximum-magnitude scale s_i,
// weights are rescaled when a larger magnitude arrives, steps are divided
// by s_i, and a global accumulator N keeps the effective learning rate
// comparable across problems. An AdaGrad-style per-coordinate
// accumulator adapts the step to the observed gradients. This matters
// here because several Table-2 features (e.g. Break Time) are unbounded
// and cannot be normalized in advance — exactly the motivation given in
// Section 4.2.
type NAG struct {
	eta      float64   // base learning rate
	etaScale float64   // target-scale multiplier (see SetTargetScale)
	lambda   float64   // ℓ2 regularization strength
	w        []float64 // model weights
	s        []float64 // per-coordinate max |x_i| seen
	g2       []float64 // per-coordinate squared-gradient accumulator
	n        float64   // Σ_t Σ_i x_i²/s_i² (the paper's N)
	t        float64   // examples seen
}

// NewNAG creates an optimizer over dim coordinates.
func NewNAG(dim int, eta, lambda float64) *NAG {
	if dim <= 0 {
		panic("ml: NAG with non-positive dimension")
	}
	if eta <= 0 {
		panic("ml: NAG with non-positive learning rate")
	}
	if lambda < 0 {
		panic("ml: NAG with negative regularization")
	}
	return &NAG{
		eta:      eta,
		etaScale: 1,
		lambda:   lambda,
		w:        make([]float64, dim),
		s:        make([]float64, dim),
		g2:       make([]float64, dim),
	}
}

// SetTargetScale declares the magnitude of the regression targets. NAG's
// per-coordinate normalization makes each step move the prediction by
// O(eta) regardless of feature scaling; when the targets live on a much
// larger scale (running times are 10⁴–10⁵ seconds), convergence needs the
// step itself rescaled. Callers keep this updated with a running max |y|,
// which makes the optimizer invariant to target scaling the same way the
// s_i normalization makes it invariant to feature scaling. Values <= 0
// are ignored.
func (o *NAG) SetTargetScale(scale float64) {
	if scale > 0 {
		o.etaScale = scale
	}
}

// Dim returns the coordinate count.
func (o *NAG) Dim() int { return len(o.w) }

// Weights exposes the current weight vector (not a copy; read-only use).
func (o *NAG) Weights() []float64 { return o.w }

// Step performs one NAG update. grad receives the model's prediction at
// the current (scale-corrected) weights and must return the loss
// derivative dL/dŷ at that prediction. Step returns that prediction.
//
// x is read twice: once to maintain the scales and sum the prediction,
// once to update the weights. The prediction is summed in the scale
// pass rather than in a pass of its own: weight i changes only in
// iteration i, so the dot adds the same rescaled terms in the same order
// either way, and its bits do not change.
func (o *NAG) Step(x []float64, grad func(pred float64) float64) float64 {
	o.t++
	w, s, g2 := o.w[:len(x)], o.s[:len(x)], o.g2[:len(x)]
	n, pred := o.n, 0.0
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		// Scale maintenance: shrink a weight whose coordinate just
		// revealed a larger magnitude, so that w_i·x_i stays calibrated.
		si := s[i]
		if a := math.Abs(xi); a > si {
			if si > 0 {
				r := si / a
				w[i] *= r * r
			}
			si = a
			s[i] = a
		}
		n += (xi / si) * (xi / si)
		pred += w[i] * xi
	}
	o.n = n
	if n == 0 {
		return pred
	}
	dLdPred := grad(pred)
	scale := o.eta * o.etaScale * math.Sqrt(o.t/n)
	lambda := o.lambda
	// The weight update: a square root and a division per coordinate,
	// which no bit-identical rewrite removes. They set the step's floor.
	for i, xi := range x {
		wi := w[i]
		if xi == 0 && wi == 0 {
			continue
		}
		gi := dLdPred*xi + lambda*wi
		if gi == 0 {
			continue
		}
		gg := g2[i] + gi*gi
		g2[i] = gg
		si := s[i]
		if si == 0 {
			si = 1
		}
		w[i] = wi - scale*gi/(si*math.Sqrt(gg))
	}
	return pred
}
