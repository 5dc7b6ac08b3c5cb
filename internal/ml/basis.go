package ml

// Basis implements the paper's degree-2 polynomial feature map
//
//	Φ(x) = (1, x1..xn, x1², .., xn², x1x2, .., x(n-1)xn)
//
// of dimension 1 + 2n + n(n-1)/2, matching the w ∈ R^(1+2n+C(n,2)) in
// Equation (1). The expansion is allocated once and reused to keep the
// per-prediction cost at a single O(n²) pass with no garbage.
type Basis struct {
	n      int
	degree int
	out    []float64
}

// NewBasis creates the paper's degree-2 basis expander for n raw features.
func NewBasis(n int) *Basis { return NewBasisDegree(n, 2) }

// NewBasisDegree creates a basis of the given degree: 1 gives the affine
// map (1, x1..xn) — the linear-model ablation — and 2 the paper's full
// quadratic map.
func NewBasisDegree(n, degree int) *Basis {
	if n <= 0 {
		panic("ml: basis over non-positive feature count")
	}
	if degree != 1 && degree != 2 {
		panic("ml: basis degree must be 1 or 2")
	}
	dim := 1 + n
	if degree == 2 {
		dim = BasisDim(n)
	}
	return &Basis{n: n, degree: degree, out: make([]float64, dim)}
}

// BasisDim returns the degree-2 expanded dimension for n raw features.
func BasisDim(n int) int { return 1 + 2*n + n*(n-1)/2 }

// Dim returns the expanded dimension.
func (b *Basis) Dim() int { return len(b.out) }

// Dot returns w·Φ(x) without building Φ(x). It visits the coordinates
// in Expand's order and skips each Φ_k that is zero, as a dot over
// Expand(x) does, so the sum keeps its terms, their order and its bits.
// The zero test is on each product, not on its factors: two nonzero
// features can multiply to an underflowed zero.
func (b *Basis) Dot(w, x []float64) float64 {
	if len(x) != b.n {
		panic("ml: basis dimension mismatch")
	}
	w = w[:len(b.out)]
	// Φ_0 = 1. Its term is added to a zero sum, as in a dot over Φ,
	// rather than starting the sum, so a -0 weight still sums to +0.
	dot := 0.0
	dot += w[0]
	lin := w[1:][:len(x)]
	for i, xi := range x {
		if xi != 0 {
			dot += lin[i] * xi
		}
	}
	if b.degree == 1 {
		return dot
	}
	sq := w[1+len(x):][:len(x)]
	for i, xi := range x {
		if p := xi * xi; p != 0 {
			dot += sq[i] * p
		}
	}
	cross := w[1+2*len(x):]
	for i, xi := range x {
		rest := x[i+1:]
		row := cross[:len(rest)]
		for j, xj := range rest {
			if p := xi * xj; p != 0 {
				dot += row[j] * p
			}
		}
		cross = cross[len(rest):]
	}
	return dot
}

// Expand maps the raw vector into the polynomial basis. The returned
// slice is owned by the Basis and overwritten by the next call; callers
// that need to keep it must copy.
func (b *Basis) Expand(x []float64) []float64 {
	if len(x) != b.n {
		panic("ml: basis dimension mismatch")
	}
	out := b.out
	out[0] = 1
	copy(out[1:], x)
	if b.degree == 1 {
		return out
	}
	sq := out[1+len(x):][:len(x)]
	for i, xi := range x {
		sq[i] = xi * xi
	}
	cross := out[1+2*len(x):]
	for i, xi := range x {
		rest := x[i+1:]
		row := cross[:len(rest)]
		for j, xj := range rest {
			row[j] = xi * xj
		}
		cross = cross[len(rest):]
	}
	return out
}
