// Package mat implements the dense, row-major, float64 matrix kernels that
// every other subsystem of goparsvd builds on.
//
// The package deliberately mirrors the small slice of NumPy that PyParSVD
// uses: construction, slicing, stacking, transposition, matrix products and
// norms. Matrices own their backing storage; slicing operations copy, so a
// Dense value can always be mutated without aliasing surprises.
//
// The matrix product (gemm.go) is a cache-blocked, packed GEMM: operand
// panels are copied into micro-tile-ordered buffers sized for L1/L2, the
// inner loop is a register micro-kernel dispatched per CPU and per shape
// (kernel.go: AVX-512 and AVX2/FMA assembly on amd64, NEON on arm64, an
// unrolled pure-Go kernel everywhere, overridable with PARSVD_NOASM and
// PARSVD_KERNEL), and large products fan their A-panel blocks out to a
// persistent worker pool (pool.go) instead of spawning goroutines per
// call. Products with one dimension of at most 32 and another in the
// thousands — the QR's tall-skinny products — skip packing and run on two
// streaming kernels per ISA (stream.go). Batches of products sharing a
// right-hand side go through BatchedMulInto (batch.go), which packs each
// B panel once per batch. Hot
// paths use the allocation-free *Into entry points together with a
// Workspace (workspace.go), a buffer pool that lets iterative algorithms
// reuse every temporary across iterations.
package mat

import (
	"fmt"
	"math"
)

// Dense is a dense, row-major matrix of float64 values.
//
// The zero value is an empty (0×0) matrix. Dense values returned by the
// constructors in this package own their backing slice.
type Dense struct {
	rows, cols int
	data       []float64
}

// New returns a zeroed r×c matrix. It panics if r or c is negative.
func New(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewFromData wraps the given row-major backing slice in a Dense without
// copying. The caller must not reuse data afterwards. It panics unless
// len(data) == r*c.
func NewFromData(r, c int, data []float64) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", r, c))
	}
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: data length %d does not match %dx%d", len(data), r, c))
	}
	return &Dense{rows: r, cols: c, data: data}
}

// NewFromRows builds a matrix from a slice of equal-length rows, copying the
// contents. It panics if the rows are ragged.
func NewFromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	m := New(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("mat: ragged row %d: len %d, want %d", i, len(row), c))
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m
}

// Eye returns the n×n identity matrix.
func Eye(n int) *Dense {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Dims returns the number of rows and columns.
func (m *Dense) Dims() (r, c int) { return m.rows, m.cols }

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// IsEmpty reports whether the matrix has zero elements.
func (m *Dense) IsEmpty() bool { return m.rows == 0 || m.cols == 0 }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.checkIndex(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.checkIndex(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) checkIndex(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of bounds for %dx%d", i, j, m.rows, m.cols))
	}
}

// RawData returns the backing row-major slice. Mutating it mutates the
// matrix. Intended for I/O and message packing, not numerics.
func (m *Dense) RawData() []float64 { return m.data }

// RowView returns row i as a slice aliasing the matrix storage.
func (m *Dense) RowView(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of bounds for %dx%d", i, m.rows, m.cols))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Row returns a copy of row i.
func (m *Dense) Row(i int) []float64 {
	row := make([]float64, m.cols)
	copy(row, m.RowView(i))
	return row
}

// SetRow copies v into row i. It panics unless len(v) == Cols().
func (m *Dense) SetRow(i int, v []float64) {
	if len(v) != m.cols {
		panic(fmt.Sprintf("mat: SetRow length %d, want %d", len(v), m.cols))
	}
	copy(m.RowView(i), v)
}

// Col returns a copy of column j.
func (m *Dense) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: column %d out of bounds for %dx%d", j, m.rows, m.cols))
	}
	col := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		col[i] = m.data[i*m.cols+j]
	}
	return col
}

// SetCol copies v into column j. It panics unless len(v) == Rows().
func (m *Dense) SetCol(j int, v []float64) {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: column %d out of bounds for %dx%d", j, m.rows, m.cols))
	}
	if len(v) != m.rows {
		panic(fmt.Sprintf("mat: SetCol length %d, want %d", len(v), m.rows))
	}
	for i := 0; i < m.rows; i++ {
		m.data[i*m.cols+j] = v[i]
	}
}

// Clone returns a deep copy of the matrix.
func (m *Dense) Clone() *Dense {
	out := New(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// CopyFrom overwrites m with the contents of src. The dimensions must match.
func (m *Dense) CopyFrom(src *Dense) {
	if m.rows != src.rows || m.cols != src.cols {
		panic(fmt.Sprintf("mat: CopyFrom dimension mismatch %dx%d vs %dx%d",
			m.rows, m.cols, src.rows, src.cols))
	}
	copy(m.data, src.data)
}

// Assign makes m the r×c matrix whose row-major values are data, copied
// into m's own storage when it holds r·c values and into fresh storage
// otherwise, so a matrix that receives same-shaped values again and again
// allocates once. It panics unless len(data) == r·c.
func (m *Dense) Assign(r, c int, data []float64) {
	if r < 0 || c < 0 || len(data) != r*c {
		panic(fmt.Sprintf("mat: Assign of %d values to a %dx%d matrix", len(data), r, c))
	}
	if cap(m.data) < r*c {
		m.data = make([]float64, r*c)
	}
	m.rows, m.cols, m.data = r, c, m.data[:r*c]
	copy(m.data, data)
}

// Wrap makes m the r×c matrix whose row-major values are data, without
// copying: m aliases data afterwards, as NewFromData's result does, but
// through a header the caller keeps. It panics unless len(data) == r·c.
func (m *Dense) Wrap(r, c int, data []float64) {
	if r < 0 || c < 0 || len(data) != r*c {
		panic(fmt.Sprintf("mat: Wrap of %d values as a %dx%d matrix", len(data), r, c))
	}
	m.rows, m.cols, m.data = r, c, data
}

// T returns the transpose as a new matrix.
func (m *Dense) T() *Dense {
	out := New(m.cols, m.rows)
	m.TInto(out)
	return out
}

// TInto writes the transpose of m into dst without allocating. dst must be
// Cols()×Rows() and must not alias m.
func (m *Dense) TInto(dst *Dense) {
	if dst.rows != m.cols || dst.cols != m.rows {
		panic(fmt.Sprintf("mat: TInto destination is %dx%d, want %dx%d",
			dst.rows, dst.cols, m.cols, m.rows))
	}
	// Blocks of tBlock source rows: each destination row receives one
	// contiguous run per block, so a power-of-two row count (every
	// destination row mapping to the same cache set) cannot thrash.
	r, c := m.rows, m.cols
	for i0 := 0; i0 < r; i0 += tBlock {
		i1 := min(i0+tBlock, r)
		for j := 0; j < c; j++ {
			out := dst.data[j*r+i0 : j*r+i1]
			idx := i0*c + j
			for i := range out {
				out[i] = m.data[idx]
				idx += c
			}
		}
	}
}

// tBlock is the source row block of TInto and MulDiagScaledTInto.
const tBlock = 64

// Slice returns a copy of the submatrix with rows [r0,r1) and columns
// [c0,c1).
func (m *Dense) Slice(r0, r1, c0, c1 int) *Dense {
	if r0 < 0 || r1 > m.rows || r0 > r1 || c0 < 0 || c1 > m.cols || c0 > c1 {
		panic(fmt.Sprintf("mat: slice [%d:%d,%d:%d] out of bounds for %dx%d",
			r0, r1, c0, c1, m.rows, m.cols))
	}
	out := New(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		copy(out.data[(i-r0)*out.cols:(i-r0+1)*out.cols], m.data[i*m.cols+c0:i*m.cols+c1])
	}
	return out
}

// SliceCols returns a copy of columns [c0,c1).
func (m *Dense) SliceCols(c0, c1 int) *Dense { return m.Slice(0, m.rows, c0, c1) }

// SliceColsInto copies columns [c0,c1) into dst without allocating. dst
// must be Rows()×(c1−c0).
func (m *Dense) SliceColsInto(dst *Dense, c0, c1 int) {
	if c0 < 0 || c1 > m.cols || c0 > c1 {
		panic(fmt.Sprintf("mat: slice [%d:%d] out of bounds for %dx%d",
			c0, c1, m.rows, m.cols))
	}
	if dst.rows != m.rows || dst.cols != c1-c0 {
		panic(fmt.Sprintf("mat: SliceColsInto destination is %dx%d, want %dx%d",
			dst.rows, dst.cols, m.rows, c1-c0))
	}
	for i := 0; i < m.rows; i++ {
		copy(dst.data[i*dst.cols:(i+1)*dst.cols], m.data[i*m.cols+c0:i*m.cols+c1])
	}
}

// SliceRows returns a copy of rows [r0,r1).
func (m *Dense) SliceRows(r0, r1 int) *Dense { return m.Slice(r0, r1, 0, m.cols) }

// ViewRows overwrites view with a no-copy window onto rows [r0,r1) of m.
// Unlike SliceRows this aliases the receiver's storage: writes through
// either header are visible to both, and the view becomes invalid if the
// parent's storage is replaced. Reusing one Dense header across calls keeps
// row-panel iteration (batch.go) allocation-free.
func (m *Dense) ViewRows(r0, r1 int, view *Dense) {
	if r0 < 0 || r1 > m.rows || r0 > r1 {
		panic(fmt.Sprintf("mat: view [%d:%d] out of bounds for %dx%d",
			r0, r1, m.rows, m.cols))
	}
	view.rows = r1 - r0
	view.cols = m.cols
	view.data = m.data[r0*m.cols : r1*m.cols : r1*m.cols]
}

// ColMatrix returns column j as an m×1 matrix.
func (m *Dense) ColMatrix(j int) *Dense {
	return NewFromData(m.rows, 1, m.Col(j))
}

// Diag returns the main diagonal as a slice.
func (m *Dense) Diag() []float64 {
	n := m.rows
	if m.cols < n {
		n = m.cols
	}
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		d[i] = m.data[i*m.cols+i]
	}
	return d
}

// Fill sets every element to v.
func (m *Dense) Fill(v float64) {
	for i := range m.data {
		m.data[i] = v
	}
}

// Zero sets every element to 0.
func (m *Dense) Zero() { m.Fill(0) }

// String renders small matrices fully and large ones as a summary; it exists
// for debugging and test failure messages.
func (m *Dense) String() string {
	if m.rows*m.cols > 64 {
		return fmt.Sprintf("Dense(%dx%d, fro=%.6g)", m.rows, m.cols, m.FroNorm())
	}
	s := fmt.Sprintf("Dense(%dx%d)[", m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.6g", m.data[i*m.cols+j])
		}
	}
	return s + "]"
}

// FroNorm returns the Frobenius norm, computed with scaling to avoid
// overflow.
func (m *Dense) FroNorm() float64 {
	scale, ssq := 0.0, 1.0
	for _, v := range m.data {
		if v == 0 {
			continue
		}
		av := math.Abs(v)
		if scale < av {
			r := scale / av
			ssq = 1 + ssq*r*r
			scale = av
		} else {
			r := av / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// MaxAbs returns the largest absolute element value, or 0 for an empty
// matrix.
func (m *Dense) MaxAbs() float64 {
	max := 0.0
	for _, v := range m.data {
		if av := math.Abs(v); av > max {
			max = av
		}
	}
	return max
}

// ColNorm returns the Euclidean norm of column j.
func (m *Dense) ColNorm(j int) float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: column %d out of bounds for %dx%d", j, m.rows, m.cols))
	}
	s := 0.0
	for i := 0; i < m.rows; i++ {
		v := m.data[i*m.cols+j]
		s += v * v
	}
	return math.Sqrt(s)
}
