package sparse

import (
	"math"
	"testing"
	"testing/quick"
)

// laplacian1D returns the n×n tridiagonal Poisson matrix (2 on the
// diagonal, -1 off): symmetric positive definite.
func laplacian1D(n int) *CSR {
	b := newBuilder(n, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.add(i-1, -1)
		}
		b.add(i, 2)
		if i < n-1 {
			b.add(i+1, -1)
		}
		b.endRow()
	}
	return b.build()
}

func TestLaplacian1DStructure(t *testing.T) {
	m := laplacian1D(5)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Nnz() != 13 { // 5 diag + 8 off
		t.Fatalf("Nnz = %d, want 13", m.Nnz())
	}
	x := []float64{1, 1, 1, 1, 1}
	y := make([]float64, 5)
	m.MulVec(x, y)
	want := []float64{1, 0, 0, 0, 1}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("y[%d] = %g, want %g", i, y[i], want[i])
		}
	}
}

func TestQueenLikeSPDProperties(t *testing.T) {
	m := QueenLike(200, 10)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Diagonal dominance: |diag| > sum of |off-diag| per row.
	for i := 0; i < m.Rows; i++ {
		var diag, off float64
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if int(m.ColIdx[k]) == i {
				diag = m.Vals[k]
			} else {
				off += math.Abs(m.Vals[k])
			}
		}
		if diag <= off {
			t.Fatalf("row %d not diagonally dominant: %g vs %g", i, diag, off)
		}
	}
	// Columns sorted per row.
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i] + 1; k < m.RowPtr[i+1]; k++ {
			if m.ColIdx[k] <= m.ColIdx[k-1] {
				t.Fatalf("row %d columns not ascending", i)
			}
		}
	}
}

func TestQueenLikeSymmetric(t *testing.T) {
	m := QueenLike(100, 6)
	// Check A[i][j] == A[j][i] by dense reconstruction.
	dense := make([][]float64, m.Rows)
	for i := range dense {
		dense[i] = make([]float64, m.Cols)
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			dense[i][m.ColIdx[k]] = m.Vals[k]
		}
	}
	for i := range dense {
		for j := range dense[i] {
			if dense[i][j] != dense[j][i] {
				t.Fatalf("A[%d][%d] = %g != A[%d][%d] = %g", i, j, dense[i][j], j, i, dense[j][i])
			}
		}
	}
}

func TestRowBlockMatchesFull(t *testing.T) {
	m := QueenLike(60, 5)
	x := make([]float64, m.Cols)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	yFull := make([]float64, m.Rows)
	m.MulVec(x, yFull)

	for _, blk := range [][2]int64{{0, 20}, {20, 45}, {45, 60}} {
		rb := m.RowBlock(blk[0], blk[1])
		if err := rb.Validate(); err != nil {
			t.Fatal(err)
		}
		y := make([]float64, rb.Rows)
		rb.MulVec(x, y)
		for i := range y {
			if y[i] != yFull[int(blk[0])+i] {
				t.Fatalf("block [%d,%d) row %d: %g != %g", blk[0], blk[1], i, y[i], yFull[int(blk[0])+i])
			}
		}
	}
}

func TestCGSolvesLaplacian(t *testing.T) {
	m := laplacian1D(50)
	b := make([]float64, 50)
	for i := range b {
		b[i] = 1
	}
	res := CG(m, b, 1e-10, 500)
	if !res.Converged {
		t.Fatalf("CG did not converge: residual %g after %d iterations", res.Residual, res.Iterations)
	}
	// Verify A x ≈ b.
	y := make([]float64, 50)
	m.MulVec(res.X, y)
	for i := range y {
		if math.Abs(y[i]-b[i]) > 1e-8 {
			t.Fatalf("Ax[%d] = %g, want %g", i, y[i], b[i])
		}
	}
}

func TestCGSolvesQueenLike(t *testing.T) {
	m := QueenLike(300, 12)
	b := make([]float64, 300)
	for i := range b {
		b[i] = math.Sin(float64(i))
	}
	res := CG(m, b, 1e-9, 1000)
	if !res.Converged {
		t.Fatalf("CG did not converge: residual %g", res.Residual)
	}
	y := make([]float64, 300)
	m.MulVec(res.X, y)
	for i := range y {
		if math.Abs(y[i]-b[i]) > 1e-6 {
			t.Fatalf("Ax[%d] off by %g", i, math.Abs(y[i]-b[i]))
		}
	}
}

func TestCGMaxIterStops(t *testing.T) {
	m := laplacian1D(100)
	b := make([]float64, 100)
	b[0] = 1
	res := CG(m, b, 1e-30, 3)
	if res.Converged {
		t.Fatal("CG claims convergence at absurd tolerance in 3 iterations")
	}
	if res.Iterations != 3 {
		t.Fatalf("Iterations = %d, want 3", res.Iterations)
	}
}

func TestDotAxpy(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, -5, 6}
	if Dot(a, b) != 12 {
		t.Fatalf("Dot = %g, want 12", Dot(a, b))
	}
	y := []float64{1, 1, 1}
	Axpy(2, a, y)
	if y[0] != 3 || y[1] != 5 || y[2] != 7 {
		t.Fatalf("Axpy = %v", y)
	}
}

func TestPropertyCGConvergesOnDominantSystems(t *testing.T) {
	f := func(seed uint8) bool {
		n := 30
		m := QueenLike(n, 3)
		b := make([]float64, n)
		for i := range b {
			b[i] = float64((int(seed)+i*7)%11) - 5
		}
		res := CG(m, b, 1e-9, 500)
		if !res.Converged {
			return false
		}
		y := make([]float64, n)
		m.MulVec(res.X, y)
		for i := range y {
			if math.Abs(y[i]-b[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
