package sparse

import (
	"fmt"
	"math"
)

// CGResult reports a Conjugate Gradient solve.
type CGResult struct {
	X          []float64
	Iterations int
	Residual   float64 // final ‖r‖₂
	Converged  bool
}

// CG solves A x = b for symmetric positive-definite A with the Conjugate
// Gradient method, starting from the zero vector, until ‖r‖₂ ≤ tol or
// maxIter iterations. This is the sequential reference for the distributed
// solver; each iteration performs one SpMV, two dot products, and three
// axpy-like updates, the structure §4.2 emulates.
func CG(a *CSR, b []float64, tol float64, maxIter int) CGResult {
	n := a.Rows
	if len(b) != n || a.Cols != n {
		panic(fmt.Sprintf("sparse: CG with |b|=%d for %dx%d", len(b), a.Rows, a.Cols))
	}
	x := make([]float64, n)
	r := make([]float64, n)
	copy(r, b) // r = b - A*0
	p := make([]float64, n)
	copy(p, r)
	q := make([]float64, n)

	rs := Dot(r, r)
	res := CGResult{X: x}
	for res.Iterations = 0; res.Iterations < maxIter; res.Iterations++ {
		if math.Sqrt(rs) <= tol {
			res.Converged = true
			break
		}
		a.MulVec(p, q)
		alpha := rs / Dot(p, q)
		Axpy(alpha, p, x)  // x += alpha p
		Axpy(-alpha, q, r) // r -= alpha q
		rsNew := Dot(r, r)
		beta := rsNew / rs
		for i := range p { // p = r + beta p
			p[i] = r[i] + beta*p[i]
		}
		rs = rsNew
	}
	res.Residual = math.Sqrt(rs)
	res.Converged = res.Residual <= tol
	return res
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("sparse: Dot with |a|=%d |b|=%d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Axpy computes y += alpha*x in place.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("sparse: Axpy with |x|=%d |y|=%d", len(x), len(y)))
	}
	for i := range y {
		y[i] += alpha * x[i]
	}
}
