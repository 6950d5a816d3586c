// Package sparse provides compressed sparse row matrices, generators for
// the symmetric positive-definite systems the paper's emulated application
// solves, and a sequential Conjugate Gradient reference solver.
//
// The paper's testbed matrix is Queen_4147 (4.15M rows, ~330M non-zeros,
// ~80 per row). QueenLike generates matrices with that density profile at
// arbitrary sizes, so correctness runs stay laptop-sized while the
// emulation uses the true dimensions virtually.
package sparse

import (
	"fmt"
	"math"
)

// CSR is a sparse matrix in compressed sparse row form.
type CSR struct {
	Rows, Cols int
	RowPtr     []int64   // len Rows+1
	ColIdx     []int32   // len Nnz
	Vals       []float64 // len Nnz
}

// Nnz returns the number of stored entries.
func (m *CSR) Nnz() int64 { return m.RowPtr[m.Rows] }

// Validate checks structural invariants, returning a descriptive error.
func (m *CSR) Validate() error {
	if len(m.RowPtr) != m.Rows+1 {
		return fmt.Errorf("sparse: RowPtr has %d entries, want %d", len(m.RowPtr), m.Rows+1)
	}
	if m.RowPtr[0] != 0 {
		return fmt.Errorf("sparse: RowPtr[0] = %d", m.RowPtr[0])
	}
	for i := 0; i < m.Rows; i++ {
		if m.RowPtr[i+1] < m.RowPtr[i] {
			return fmt.Errorf("sparse: RowPtr not monotone at row %d", i)
		}
	}
	nnz := m.Nnz()
	if int64(len(m.ColIdx)) != nnz || int64(len(m.Vals)) != nnz {
		return fmt.Errorf("sparse: %d cols / %d vals for %d nnz", len(m.ColIdx), len(m.Vals), nnz)
	}
	for i, c := range m.ColIdx {
		if c < 0 || int(c) >= m.Cols {
			return fmt.Errorf("sparse: entry %d has column %d outside [0,%d)", i, c, m.Cols)
		}
	}
	return nil
}

// MulVec computes y = M x. len(x) must be Cols and len(y) Rows.
func (m *CSR) MulVec(x, y []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic(fmt.Sprintf("sparse: MulVec with |x|=%d |y|=%d for %dx%d", len(x), len(y), m.Rows, m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		var s float64
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			s += m.Vals[k] * x[m.ColIdx[k]]
		}
		y[i] = s
	}
}

// RowBlock extracts rows [lo, hi) as a standalone CSR with the same column
// space.
func (m *CSR) RowBlock(lo, hi int64) *CSR {
	if lo < 0 || hi < lo || hi > int64(m.Rows) {
		panic(fmt.Sprintf("sparse: RowBlock [%d,%d) of %d rows", lo, hi, m.Rows))
	}
	n := hi - lo
	rp := make([]int64, n+1)
	base := m.RowPtr[lo]
	for i := int64(0); i <= n; i++ {
		rp[i] = m.RowPtr[lo+i] - base
	}
	return &CSR{
		Rows:   int(n),
		Cols:   m.Cols,
		RowPtr: rp,
		ColIdx: m.ColIdx[base:m.RowPtr[hi]],
		Vals:   m.Vals[base:m.RowPtr[hi]],
	}
}

// builder assembles CSR matrices row by row.
type builder struct {
	rows, cols int
	rowPtr     []int64
	colIdx     []int32
	vals       []float64
}

func newBuilder(rows, cols int) *builder {
	return &builder{rows: rows, cols: cols, rowPtr: make([]int64, 1, rows+1)}
}

// add appends an entry to the current row; columns must come in ascending
// order within a row.
func (b *builder) add(col int, v float64) {
	b.colIdx = append(b.colIdx, int32(col))
	b.vals = append(b.vals, v)
}

func (b *builder) endRow() {
	b.rowPtr = append(b.rowPtr, int64(len(b.vals)))
}

func (b *builder) build() *CSR {
	m := &CSR{Rows: b.rows, Cols: b.cols, RowPtr: b.rowPtr, ColIdx: b.colIdx, Vals: b.vals}
	if err := m.Validate(); err != nil {
		panic(err)
	}
	return m
}

// QueenLike generates an n×n SPD matrix whose sparsity profile mimics the
// Queen_4147 benchmark matrix: a banded structure with bandsPerSide
// off-diagonal bands on each side (Queen_4147 averages ~80 non-zeros per
// row, i.e. bandsPerSide ≈ 40). The diagonal strictly dominates, which
// guarantees positive definiteness.
func QueenLike(n, bandsPerSide int) *CSR {
	if bandsPerSide < 1 {
		panic("sparse: QueenLike needs at least one band")
	}
	b := newBuilder(n, n)
	for i := 0; i < n; i++ {
		var offDiag float64
		// Irregular band offsets: dense near the diagonal, strided farther
		// out, like a stiffness matrix from a 3D mesh.
		offsets := bandOffsets(bandsPerSide, n)
		for k := len(offsets) - 1; k >= 0; k-- {
			if j := i - offsets[k]; j >= 0 {
				v := -1.0 / float64(offsets[k])
				b.add(j, v)
				offDiag += math.Abs(v)
			}
		}
		diagPos := len(b.vals)
		b.add(i, 0) // placeholder
		for k := 0; k < len(offsets); k++ {
			if j := i + offsets[k]; j < n {
				v := -1.0 / float64(offsets[k])
				b.add(j, v)
				offDiag += math.Abs(v)
			}
		}
		b.vals[diagPos] = offDiag + 1 // strict diagonal dominance
		b.endRow()
	}
	return b.build()
}

// bandOffsets returns the off-diagonal distances used by QueenLike.
func bandOffsets(bands, n int) []int {
	out := make([]int, 0, bands)
	off := 1
	step := 1
	for len(out) < bands && off < n {
		out = append(out, off)
		if len(out)%8 == 0 {
			step *= 2 // stride growth away from the diagonal
		}
		off += step
	}
	return out
}
