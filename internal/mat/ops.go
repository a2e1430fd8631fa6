package mat

import (
	"fmt"
	"math"
)

// Add returns a + b. It panics on dimension mismatch.
func Add(a, b *Dense) *Dense {
	checkSameDims("Add", a, b)
	out := New(a.rows, a.cols)
	for i, v := range a.data {
		out.data[i] = v + b.data[i]
	}
	return out
}

// Sub returns a - b. It panics on dimension mismatch.
func Sub(a, b *Dense) *Dense {
	checkSameDims("Sub", a, b)
	out := New(a.rows, a.cols)
	for i, v := range a.data {
		out.data[i] = v - b.data[i]
	}
	return out
}

// Scale returns s*a as a new matrix.
func Scale(s float64, a *Dense) *Dense {
	out := New(a.rows, a.cols)
	for i, v := range a.data {
		out.data[i] = s * v
	}
	return out
}

// ScaleInPlace multiplies every element of a by s.
func ScaleInPlace(s float64, a *Dense) {
	for i := range a.data {
		a.data[i] *= s
	}
}

// AddScaled returns a + s*b. It panics on dimension mismatch.
func AddScaled(a *Dense, s float64, b *Dense) *Dense {
	checkSameDims("AddScaled", a, b)
	out := New(a.rows, a.cols)
	for i, v := range a.data {
		out.data[i] = v + s*b.data[i]
	}
	return out
}

func checkSameDims(op string, a, b *Dense) {
	if a.rows != b.rows || a.cols != b.cols {
		panic(fmt.Sprintf("mat: %s dimension mismatch %dx%d vs %dx%d",
			op, a.rows, a.cols, b.rows, b.cols))
	}
}

// Mul returns the matrix product a*b, computed by the blocked GEMM kernel
// in gemm.go.
func Mul(a, b *Dense) *Dense {
	out := New(a.rows, b.cols)
	MulInto(out, a, b)
	return out
}

// MulInto computes dst = a*b without allocating. dst must be a.Rows() ×
// b.Cols() and must not alias a or b.
func MulInto(dst, a, b *Dense) {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: Mul dimension mismatch %dx%d * %dx%d",
			a.rows, a.cols, b.rows, b.cols))
	}
	checkDims("MulInto", dst, a.rows, b.cols)
	gemm(dst, a, b, false, false)
}

// MulAddInto computes dst += a*b without allocating. dst must be a.Rows() ×
// b.Cols() and must not alias a or b.
func MulAddInto(dst, a, b *Dense) {
	if a.cols != b.rows {
		panic(dimPanic("MulAdd", a, b))
	}
	checkDims("MulAddInto", dst, a.rows, b.cols)
	gemmAcc(dst, a, b, false, false)
}

// MulTransA returns aᵀ*b without materializing the transpose.
func MulTransA(a, b *Dense) *Dense {
	out := New(a.cols, b.cols)
	MulTransAInto(out, a, b)
	return out
}

// MulTransAInto computes dst = aᵀ*b without allocating. dst must be
// a.Cols() × b.Cols() and must not alias a or b.
func MulTransAInto(dst, a, b *Dense) {
	if a.rows != b.rows {
		panic(fmt.Sprintf("mat: MulTransA dimension mismatch %dx%d ᵀ* %dx%d",
			a.rows, a.cols, b.rows, b.cols))
	}
	checkDims("MulTransAInto", dst, a.cols, b.cols)
	gemm(dst, a, b, true, false)
}

// MulTransB returns a*bᵀ without materializing the transpose.
func MulTransB(a, b *Dense) *Dense {
	out := New(a.rows, b.rows)
	MulTransBInto(out, a, b)
	return out
}

// MulTransBInto computes dst = a*bᵀ without allocating. dst must be
// a.Rows() × b.Rows() and must not alias a or b.
func MulTransBInto(dst, a, b *Dense) {
	if a.cols != b.cols {
		panic(fmt.Sprintf("mat: MulTransB dimension mismatch %dx%d *ᵀ %dx%d",
			a.rows, a.cols, b.rows, b.cols))
	}
	checkDims("MulTransBInto", dst, a.rows, b.rows)
	gemm(dst, a, b, false, true)
}

func checkDims(op string, m *Dense, r, c int) {
	if m.rows != r || m.cols != c {
		panic(fmt.Sprintf("mat: %s destination is %dx%d, want %dx%d",
			op, m.rows, m.cols, r, c))
	}
}

func dimPanic(op string, a, b *Dense) string {
	return fmt.Sprintf("mat: %s dimension mismatch %dx%d * %dx%d",
		op, a.rows, a.cols, b.rows, b.cols)
}

// ScaleInto computes dst = s*a without allocating. dst may alias a.
func ScaleInto(dst *Dense, s float64, a *Dense) {
	checkSameDims("ScaleInto", dst, a)
	for i, v := range a.data {
		dst.data[i] = s * v
	}
}

// MulDiag returns a*diag(d), scaling column j of a by d[j]. It panics unless
// len(d) == a.Cols().
func MulDiag(a *Dense, d []float64) *Dense {
	out := New(a.rows, a.cols)
	MulDiagInto(out, a, d)
	return out
}

// MulDiagInto computes dst = a*diag(d) without allocating. dst may alias a.
func MulDiagInto(dst, a *Dense, d []float64) {
	if len(d) != a.cols {
		panic(fmt.Sprintf("mat: MulDiag length %d, want %d", len(d), a.cols))
	}
	checkSameDims("MulDiagInto", dst, a)
	for i := 0; i < a.rows; i++ {
		row := a.data[i*a.cols : (i+1)*a.cols]
		orow := dst.data[i*a.cols : (i+1)*a.cols]
		for j, v := range row {
			orow[j] = v * d[j]
		}
	}
}

// MulDiagScaledInto computes dst = s*a*diag(d) in one pass — the fused form
// the streaming update uses to fold the forget factor into the column
// scaling without an intermediate matrix. dst may alias a.
func MulDiagScaledInto(dst *Dense, s float64, a *Dense, d []float64) {
	if len(d) != a.cols {
		panic(fmt.Sprintf("mat: MulDiagScaledInto length %d, want %d", len(d), a.cols))
	}
	checkSameDims("MulDiagScaledInto", dst, a)
	for i := 0; i < a.rows; i++ {
		row := a.data[i*a.cols : (i+1)*a.cols]
		orow := dst.data[i*a.cols : (i+1)*a.cols]
		for j, v := range row {
			orow[j] = s * v * d[j]
		}
	}
}

// MulDiagScaledTInto computes dst = (s*a*diag(d))ᵀ in one pass: the
// transposed form of MulDiagScaledInto, which writes a block of the
// column-by-column layout linalg.FactorQR works on. dst must be a.Cols() ×
// a.Rows() and must not alias a.
func MulDiagScaledTInto(dst *Dense, s float64, a *Dense, d []float64) {
	if len(d) != a.cols {
		panic(fmt.Sprintf("mat: MulDiagScaledTInto length %d, want %d", len(d), a.cols))
	}
	checkDims("MulDiagScaledTInto", dst, a.cols, a.rows)
	r, c := a.rows, a.cols
	for i0 := 0; i0 < r; i0 += tBlock {
		i1 := min(i0+tBlock, r)
		for j := 0; j < c; j++ {
			out := dst.data[j*r+i0 : j*r+i1]
			idx := i0*c + j
			for i := range out {
				out[i] = s * a.data[idx] * d[j]
				idx += c
			}
		}
	}
}

// DiagMul returns diag(d)*a, scaling row i of a by d[i]. It panics unless
// len(d) == a.Rows().
func DiagMul(d []float64, a *Dense) *Dense {
	if len(d) != a.rows {
		panic(fmt.Sprintf("mat: DiagMul length %d, want %d", len(d), a.rows))
	}
	out := New(a.rows, a.cols)
	for i := 0; i < a.rows; i++ {
		row := a.data[i*a.cols : (i+1)*a.cols]
		orow := out.data[i*a.cols : (i+1)*a.cols]
		for j, v := range row {
			orow[j] = d[i] * v
		}
	}
	return out
}

// MulVec returns the matrix-vector product a*x. It panics unless
// len(x) == a.Cols().
func MulVec(a *Dense, x []float64) []float64 {
	if len(x) != a.cols {
		panic(fmt.Sprintf("mat: MulVec length %d, want %d", len(x), a.cols))
	}
	out := make([]float64, a.rows)
	for i := 0; i < a.rows; i++ {
		row := a.data[i*a.cols : (i+1)*a.cols]
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// MulVecTrans returns aᵀ*x. It panics unless len(x) == a.Rows().
func MulVecTrans(a *Dense, x []float64) []float64 {
	if len(x) != a.rows {
		panic(fmt.Sprintf("mat: MulVecTrans length %d, want %d", len(x), a.rows))
	}
	out := make([]float64, a.cols)
	for i := 0; i < a.rows; i++ {
		row := a.data[i*a.cols : (i+1)*a.cols]
		xi := x[i]
		if xi == 0 {
			continue
		}
		for j, v := range row {
			out[j] += xi * v
		}
	}
	return out
}

// HStack returns the column-wise concatenation [a | b | ...]. All operands
// must have the same number of rows; nil operands are skipped.
func HStack(ms ...*Dense) *Dense {
	var kept []*Dense
	rows := -1
	cols := 0
	for _, m := range ms {
		if m == nil {
			continue
		}
		if rows == -1 {
			rows = m.rows
		} else if m.rows != rows {
			panic(fmt.Sprintf("mat: HStack row mismatch %d vs %d", m.rows, rows))
		}
		cols += m.cols
		kept = append(kept, m)
	}
	if rows == -1 {
		return New(0, 0)
	}
	out := New(rows, cols)
	hstackInto(out, kept)
	return out
}

// HStackInto writes the column-wise concatenation [a | b | ...] into dst
// without allocating. dst must already have the stacked shape; nil operands
// are skipped. dst must not alias any operand.
func HStackInto(dst *Dense, ms ...*Dense) {
	var keptArr [8]*Dense // avoids a heap allocation for the common arities
	kept := keptArr[:0]
	cols := 0
	for _, m := range ms {
		if m == nil {
			continue
		}
		if m.rows != dst.rows {
			panic(fmt.Sprintf("mat: HStack row mismatch %d vs %d", m.rows, dst.rows))
		}
		cols += m.cols
		kept = append(kept, m)
	}
	if cols != dst.cols {
		panic(fmt.Sprintf("mat: HStackInto destination has %d columns, want %d", dst.cols, cols))
	}
	hstackInto(dst, kept)
}

func hstackInto(dst *Dense, kept []*Dense) {
	rows, cols := dst.rows, dst.cols
	off := 0
	for _, m := range kept {
		for i := 0; i < rows; i++ {
			copy(dst.data[i*cols+off:i*cols+off+m.cols], m.data[i*m.cols:(i+1)*m.cols])
		}
		off += m.cols
	}
}

// VStack returns the row-wise concatenation of the operands. All operands
// must have the same number of columns; nil operands are skipped.
func VStack(ms ...*Dense) *Dense {
	var kept []*Dense
	cols := -1
	rows := 0
	for _, m := range ms {
		if m == nil {
			continue
		}
		if cols == -1 {
			cols = m.cols
		} else if m.cols != cols {
			panic(fmt.Sprintf("mat: VStack column mismatch %d vs %d", m.cols, cols))
		}
		rows += m.rows
		kept = append(kept, m)
	}
	if cols == -1 {
		return New(0, 0)
	}
	out := New(rows, cols)
	off := 0
	for _, m := range kept {
		copy(out.data[off*cols:], m.data)
		off += m.rows
	}
	return out
}

// EqualApprox reports whether a and b have the same shape and all elements
// agree within tol.
func EqualApprox(a, b *Dense, tol float64) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i, v := range a.data {
		if math.Abs(v-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// Dot returns the inner product of x and y. It panics on length mismatch.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(x), len(y)))
	}
	s := 0.0
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Nrm2 returns the Euclidean norm of x with overflow-safe scaling.
func Nrm2(x []float64) float64 {
	scale, ssq := 0.0, 1.0
	for _, v := range x {
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

// Axpy computes y += alpha*x in place. It panics on length mismatch.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}
