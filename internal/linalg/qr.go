// Package linalg implements the dense decompositions that goparsvd needs:
// Householder QR, the Golub–Reinsch SVD, a one-sided Jacobi SVD, and a
// symmetric Jacobi eigensolver. It is the stdlib-only stand-in for the
// LAPACK routines PyParSVD reaches through NumPy (np.linalg.qr,
// np.linalg.svd, np.linalg.eigh).
//
// All routines operate on mat.Dense values and never modify their inputs,
// except FactorQR, which factors its caller's buffer in place.
// Factorizations use deterministic sign conventions where noted so that
// results are reproducible across serial and distributed code paths.
//
// Every decomposition has a *With variant taking a mat.Workspace; the
// streaming engines call those in their per-batch hot paths so temporaries
// are recycled across iterations instead of reallocated. A nil workspace
// falls back to plain allocation.
package linalg

import (
	"fmt"
	"math"

	"goparsvd/internal/mat"
)

// QR computes the thin (reduced) QR factorization A = Q·R of an m×n matrix,
// matching numpy.linalg.qr's "reduced" mode: Q is m×t and R is t×n with
// t = min(m, n). Q has orthonormal columns and R is upper triangular.
func QR(a *mat.Dense) (q, r *mat.Dense) { return QRWith(nil, a) }

// QRWith is QR drawing every temporary and both returned factors from ws.
// The caller owns q and r and may return them to the workspace when done.
// It forms Q explicitly, as Q·I; callers that only need Q times a small
// matrix should use FactorQR and MulQInto directly.
func QRWith(ws *mat.Workspace, a *mat.Dense) (q, r *mat.Dense) {
	m, n := a.Dims()
	at := ws.GetUninit(n, m)
	a.TInto(at)
	f, r := FactorQR(ws, at)
	q = ws.GetUninit(m, r.Rows())
	f.mulQ(ws, q, nil)
	f.Release(ws)
	ws.Put(at)
	return q, r
}

// qrPanel is the panel width of the blocked factorization: FactorQR reduces
// qrPanel columns at a time on mat's dot-block and broadcast-axpy kernels,
// then updates every column to the right with one product of each. It is
// the one tuning constant of the QR. QRWith at m = 4096 (Xeon with
// AVX-512, one pinned core, medians of three) for n = 16/24/32/40 took
// 0.34/0.66/1.03/1.89 ms at width 4, 0.36/0.68/1.05/2.02 at 8,
// 0.43/0.80/1.37/2.74 at 12, 0.47/0.80/1.30/2.17 at 16, 0.45/1.11/1.36/2.18
// at 24 and 0.45/0.98/1.63/3.33 at 32: the cheaper Gram product does not
// favour wider panels, whose in-panel work grows with the square of the
// width. Widths 4 and 8 tie within the host's noise on the streaming
// update and the facade bring-up, and 8 is faster on the 4096×64 Initialize.
const qrPanel = 8

// QRFactor is a thin QR factorization A = Q·R of an m×n matrix held in
// compact-WY form (the LAPACK dgeqrf/dlarft/dlarfb representation):
//
//	Q = H₀·H₁···H_{t−1} = I − Y·T·Yᵀ,  t = min(m, n),
//
// where column j of Y (m×t, unit lower trapezoidal) is the j-th Householder
// vector and T (t×t) is upper triangular. Q is never formed: MulQInto
// applies it to a small matrix with one m×t×p GEMM.
type QRFactor struct {
	y  *mat.Dense // the caller's factored buffer; row j < t holds column j of Y
	tm *mat.Dense // T, workspace-owned
}

// FactorQR factors A = Q·R in place. at holds A column by column — it is
// the n×m matrix Aᵀ, so every column of A is one contiguous row — and is
// overwritten with Yᵀ: on return its first t rows are the Householder
// vectors, with explicit zeros above and ones on the diagonal. R (t×n,
// upper triangular) is returned from ws.
//
// Reflector j follows LAPACK's sign rule, R_jj = −sign(a_jj)·‖x‖ with x
// the part of column j on and below the diagonal (sign(0) = +1), which
// NormalizeQRSigns and the distributed TSQR rely on. A column that is
// already zero gets the identity reflector (τ = 0).
//
// Columns are reduced qrPanel at a time. Within a panel each reflector
// costs one norm, one scaling, one dot-block against the remaining panel
// columns and one broadcast-axpy back into them, all on contiguous rows
// of at through mat's packing-free kernels. Then one GEMM of the whole buffer
// against the panel's Householder vectors gives both the next block of the
// Gram matrix YᵀY, from which T gains the panel's columns by the dlarft
// recurrence, and the trailing columns' projections, and one accumulating
// GEMM applies the panel's block reflector to those columns.
//
// at stays the caller's and backs f until it is no longer needed; T comes
// from ws and goes back with f.Release.
func FactorQR(ws *mat.Workspace, at *mat.Dense) (f QRFactor, r *mat.Dense) {
	n, m := at.Dims()
	t := min(m, n)
	d := at.RawData()
	r = ws.Get(t, n)
	rd := r.RawData()
	tm := ws.Get(t, t) // τ_j lands on T's diagonal as reflector j is built
	td := tm.RawData()

	// A reflector's weights for the rest of its panel (at most t−1 of
	// them) live in the strictly lower part of T's last row, which the
	// factorization never reads and which is zeroed again below.
	s := td[(t-1)*t : (t-1)*t+t-1]
	for j0 := 0; j0 < t; j0 += qrPanel {
		j1 := min(j0+qrPanel, t)
		jb := j1 - j0
		for j := j0; j < j1; j++ {
			x := d[j*m+j : (j+1)*m]
			tau := reflect(x)
			td[j*t+j] = tau
			if nc := j1 - j - 1; tau != 0 && nc > 0 {
				applyReflector(x, tau, d[(j+1)*m+j:], m, s[:nc])
			}
			// Column j of A is final: move R[0..j, j] out and leave the
			// row as Householder vector j, zero above its unit diagonal.
			row := d[j*m : j*m+j+1]
			for i, v := range row {
				rd[i*n+j] = v
				row[i] = 0
			}
			row[j] = 1
		}

		// One GEMM against the panel's Householder vectors Y_p: rows
		// [0, j1) of at are Householder vectors too, so their products are
		// the Gram block G[0:j1, j0:j1] = Y[:, 0:j1]ᵀ·Y_p; rows [j1, n) are
		// the trailing columns W, whose products are W·Y_p.
		pan := ws.ViewRows(at, j0, j1)
		g := ws.GetUninit(n, jb)
		mat.MulTransBInto(g, at, pan)
		// T's columns j0..j1−1 by the dlarft recurrence on the Gram block:
		// T[0:j, j] = −τ_j·T[0:j, 0:j]·G[0:j, j], with τ_j = T_jj.
		gd := g.RawData()
		for j := j0; j < j1; j++ {
			tj := td[j*t+j]
			if tj == 0 {
				continue
			}
			for i := 0; i < j; i++ {
				var s float64
				for l := i; l < j; l++ {
					s += td[i*t+l] * gd[l*jb+j-j0]
				}
				td[i*t+j] = -tj * s
			}
		}
		// Trailing columns: W ← W − (W·Y_p)·T_pp·Y_pᵀ, the transpose of
		// applying the panel's block reflector Qᵀ from the left.
		if j1 < n {
			p := ws.ViewRows(g, j1, n)
			// p ← −p·T_pp in place: column c reads columns l ≤ c, so walk c
			// downwards.
			pd := p.RawData()
			for i := 0; i < n-j1; i++ {
				pr := pd[i*jb : (i+1)*jb]
				for c := jb - 1; c >= 0; c-- {
					var s float64
					for l := 0; l <= c; l++ {
						s += pr[l] * td[(j0+l)*t+j0+c]
					}
					pr[c] = -s
				}
			}
			trail := ws.ViewRows(at, j1, n)
			mat.MulAddInto(trail, p, pan)
			ws.PutView(trail)
			ws.PutView(p)
		}
		ws.Put(g)
		ws.PutView(pan)
	}
	clear(s)
	// Wide matrices (n > m): the columns past t hold their R entries.
	for j := t; j < n; j++ {
		for i, v := range d[j*m : j*m+t] {
			rd[i*n+j] = v
		}
	}
	return QRFactor{y: at, tm: tm}, r
}

// MulQInto computes dst = Q·[X; 0] for a t×p matrix x (t = min(m, n)), the
// product every caller of a thin QR actually wants — Q times a small basis
// change — without forming Q:
//
//	Q·[X; 0] = [X; 0] − Y·(T·(Y₁ᵀ·X)),
//
// with Y₁ the top t×t block of Y. The only O(m) work is one m×t×p GEMM.
// dst must be m×p and must not alias x or the factored buffer.
func (f QRFactor) MulQInto(ws *mat.Workspace, dst, x *mat.Dense) {
	t, m := f.tm.Rows(), f.y.Cols()
	if x.Rows() != t || dst.Rows() != m || dst.Cols() != x.Cols() {
		panic(fmt.Sprintf("linalg: MulQInto: Q is %dx%d, x is %dx%d, dst is %dx%d",
			m, t, x.Rows(), x.Cols(), dst.Rows(), dst.Cols()))
	}
	f.mulQ(ws, dst, x)
}

// mulQ is MulQInto without the shape checks; a nil x stands for the t×t
// identity.
func (f QRFactor) mulQ(ws *mat.Workspace, dst, x *mat.Dense) {
	t, p := f.tm.Rows(), dst.Cols()
	z := f.coeffs(ws, x, p)
	ytop := f.y // Y's t columns are the buffer's first t rows
	if t < f.y.Rows() {
		ytop = ws.ViewRows(f.y, 0, t)
		defer ws.PutView(ytop)
	}
	mat.MulTransAInto(dst, ytop, z)
	ws.Put(z)
	dd := dst.RawData()
	if x == nil {
		for j := 0; j < t; j++ {
			dd[j*p+j]++
		}
		return
	}
	for i, v := range x.RawData() {
		dd[i] += v
	}
}

// coeffs returns z = T·(−Y₁ᵀ·X) (t×p, from ws), the left factor both
// applies share: Q·[X; 0] = [X; 0] + Y·z. A nil x stands for the t×t
// identity, for which Y₁ᵀ·X is Y₁ᵀ itself.
func (f QRFactor) coeffs(ws *mat.Workspace, x *mat.Dense, p int) *mat.Dense {
	t, m := f.tm.Rows(), f.y.Cols()
	yd, td := f.y.RawData(), f.tm.RawData()
	// z = −Y₁ᵀ·X; row j of Y₁ᵀ is zero before its unit diagonal.
	z := ws.Get(t, p)
	zd := z.RawData()
	if x == nil {
		for j := 0; j < t; j++ {
			for i := j; i < t; i++ {
				zd[j*p+i] = -yd[j*m+i]
			}
		}
	} else {
		mat.AxpyBlock(zd, p, yd, m, 1, x.RawData(), p, t, p, t)
		for i := range zd {
			zd[i] = -zd[i]
		}
	}
	// z ← T·z in place: row j reads rows l ≥ j, so walk j upwards.
	for j := 0; j < t; j++ {
		zr := zd[j*p : (j+1)*p]
		tjj := td[j*t+j]
		for c := range zr {
			zr[c] *= tjj
		}
		if j+1 < t {
			mat.AxpyBlock(zr, p, td[j*t+j+1:], 0, 1, zd[(j+1)*p:], p, 1, p, t-j-1)
		}
	}
	return z
}

// MulQInPlace overwrites the first p rows of the factored buffer with
// (Q·[X; 0])ᵀ for a t×p matrix x, p ≤ t: row c becomes column c of
// Q·[X; 0]. It is MulQInto for a caller that keeps its result one
// contiguous row per column — the streaming engine's mode-major modes —
// in storage the factorization already owns, so no fresh m×p destination
// is touched. Rows c < p hold Householder vectors every column of the
// product reads, so the buffer is rewritten qSlab columns at a time: one
// broadcast-axpy of zᵀ against the slab of Y into a small staging block,
// X added, then a copy back. Each element is the fused chain MulQInto
// computes on its broadcast-axpy route (t ≤ 32), plus the same addition
// of X, so there the two agree bit for bit.
//
// The factorization is spent afterwards: Q cannot be applied again.
func (f QRFactor) MulQInPlace(ws *mat.Workspace, x *mat.Dense) {
	t, m := f.tm.Rows(), f.y.Cols()
	p := x.Cols()
	if x.Rows() != t || p > t {
		panic(fmt.Sprintf("linalg: MulQInPlace: Q is %dx%d, x is %dx%d; want %d rows and at most %d columns",
			m, t, x.Rows(), p, t, t))
	}
	z := f.coeffs(ws, x, p)
	zd, yd, xd := z.RawData(), f.y.RawData(), x.RawData()
	stage := ws.GetFloats(p * min(qSlab, m))
	for i0 := 0; i0 < m; i0 += qSlab {
		w := min(qSlab, m-i0)
		sd := stage[:p*w]
		clear(sd)
		// Staged row c: Σ_j z[j][c]·Y[i0:i0+w][j], the slab of column c of
		// Y·z with every element the fused chain MulQInto computes.
		mat.AxpyBlock(sd, w, zd, 1, p, yd[i0:], m, p, w, t)
		for i := i0; i < min(i0+w, t); i++ {
			for c := 0; c < p; c++ {
				sd[c*w+i-i0] += xd[i*p+c]
			}
		}
		for c := 0; c < p; c++ {
			copy(yd[c*m+i0:c*m+i0+w], sd[c*w:(c+1)*w])
		}
	}
	ws.PutFloats(stage)
	ws.Put(z)
}

// qSlab is the column slab MulQInPlace rewrites at a time. At the
// streaming update's 4096×32 stack with p = 16 (Xeon with AVX-512, one
// pinned core) slabs of 64/128/256/512 columns took 214/203/213/227 µs
// for the restore-and-apply of BenchmarkApplyQStreamShape; draining the
// product through a transposing stage instead (Y·z's slab rows, as
// MulQInto lays them out) took ~330 µs at every width.
const qSlab = 128

// Release returns T to ws. The factored buffer stays with the caller.
func (f QRFactor) Release(ws *mat.Workspace) { ws.Put(f.tm) }

// reflect turns x = [α; x₂] into the Householder reflector H = I − τ·v·vᵀ
// with v = [1; v₂] and H·x = β·e₁: x₂ is overwritten with v₂, α with β,
// and τ is returned (0 when x is already zero).
func reflect(x []float64) float64 {
	norm := colNorm(x)
	if norm == 0 {
		return 0
	}
	alpha := x[0]
	// β = −sign(α)·‖x‖ avoids cancellation in v = x − β·e₁.
	beta := -norm
	if alpha < 0 {
		beta = norm
	}
	v0 := alpha - beta
	if inv := 1 / v0; !math.IsInf(inv, 0) {
		v := x[1:]
		i := 0
		for ; i+4 <= len(v); i += 4 {
			w := v[i : i+4 : i+4]
			w[0] *= inv
			w[1] *= inv
			w[2] *= inv
			w[3] *= inv
		}
		for ; i < len(v); i++ {
			v[i] *= inv
		}
	} else {
		for i := 1; i < len(x); i++ {
			x[i] /= v0
		}
	}
	x[0] = beta
	return (beta - alpha) / beta
}

// applyReflector applies H = I − τ·v·vᵀ, v = [1; v[1:]], to the len(s)
// vectors w[c*ldw:][:len(v)] in place: one dot-block gives every
// v[1:]·w_c[1:], and one broadcast-axpy subtracts each s_c·v back out.
// s is scratch for the weights s_c = τ·(v·w_c).
func applyReflector(v []float64, tau float64, w []float64, ldw int, s []float64) {
	nc, k := len(s), len(v)-1
	mat.DotBlock(s, 1, v[1:], 0, w[1:], ldw, 1, nc, k)
	for c := range s {
		s[c] = -tau * (w[c*ldw] + s[c])
		w[c*ldw] += s[c]
	}
	mat.AxpyBlock(w[1:], ldw, s, 1, 0, v[1:], 0, nc, k, 1)
}

// colNorm is ‖x‖₂ by a plain sum of squares (one mat.DotBlock), falling
// back to the scaled mat.Nrm2 only when that sum overflowed or fell so low
// (below 2⁻⁹⁰⁰) that squaring lost precision to underflow — batches far
// outside the unit range then factor as exactly as any other.
func colNorm(x []float64) float64 {
	var ss [1]float64
	mat.DotBlock(ss[:], 1, x, 0, x, 0, 1, 1, len(x))
	if ss[0] >= 0x1p-900 && ss[0] <= math.MaxFloat64 {
		return math.Sqrt(ss[0])
	}
	return mat.Nrm2(x)
}

// SolveUpperTriangular solves R·x = b for upper-triangular R (n×n). It
// panics if R is singular to working precision or the dimensions mismatch.
func SolveUpperTriangular(r *mat.Dense, b []float64) []float64 {
	n, c := r.Dims()
	if n != c {
		panic(fmt.Sprintf("linalg: SolveUpperTriangular needs a square matrix, got %dx%d", n, c))
	}
	if len(b) != n {
		panic(fmt.Sprintf("linalg: SolveUpperTriangular rhs length %d, want %d", len(b), n))
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < n; j++ {
			s -= r.At(i, j) * x[j]
		}
		d := r.At(i, i)
		if d == 0 {
			panic("linalg: SolveUpperTriangular: singular matrix")
		}
		x[i] = s / d
	}
	return x
}

// LeastSquares solves min‖A·x − b‖₂ via QR for an m×n matrix with m ≥ n of
// full column rank.
func LeastSquares(a *mat.Dense, b []float64) []float64 {
	m, n := a.Dims()
	if m < n {
		panic(fmt.Sprintf("linalg: LeastSquares needs m >= n, got %dx%d", m, n))
	}
	if len(b) != m {
		panic(fmt.Sprintf("linalg: LeastSquares rhs length %d, want %d", len(b), m))
	}
	q, r := QR(a)
	qtb := mat.MulVecTrans(q, b)
	return SolveUpperTriangular(r, qtb)
}

// NormalizeQRSigns flips the signs of Q's columns and R's rows in place so
// that every diagonal entry of R is non-negative. For a full-column-rank
// matrix this makes the thin QR factorization unique, which lets the
// distributed TSQR reproduce the serial factorization bit-for-bit in exact
// arithmetic — the principled version of the `qglobal = -qglobal` "trick
// for consistency" in the paper's Listing 4.
func NormalizeQRSigns(q, r *mat.Dense) {
	t := r.Rows()
	if q.Cols() < t {
		t = q.Cols()
	}
	for k := 0; k < t; k++ {
		if r.At(k, k) >= 0 {
			continue
		}
		for j := 0; j < r.Cols(); j++ {
			r.Set(k, j, -r.At(k, j))
		}
		for i := 0; i < q.Rows(); i++ {
			q.Set(i, k, -q.At(i, k))
		}
	}
}
