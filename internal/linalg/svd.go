package linalg

import (
	"errors"
	"fmt"
	"math"

	"goparsvd/internal/mat"
)

// maxSVDIterations bounds the implicit-shift QR sweeps per singular value
// in the Golub–Reinsch iteration before falling back to the (slower,
// unconditionally convergent) Jacobi SVD. The classical limit is 30, but
// Gram matrices of snapshot ensembles — squared singular values spanning
// the full double-precision range — can legitimately need a few more (the
// 1024×128 Burgers Gram converges at ~33), so the cap is doubled. It is a
// variable only so tests can force the Jacobi fallback.
var maxSVDIterations = 60

var errNoConvergence = errors.New("linalg: Golub-Reinsch SVD did not converge")

// SVD computes the thin singular value decomposition A = U·diag(s)·Vᵀ.
//
// For an m×n input it returns U (m×t), s (length t, non-negative,
// descending) and V (n×t) with t = min(m, n). Columns of U and V are
// orthonormal. This matches numpy.linalg.svd with full_matrices=False, which
// is all PyParSVD ever uses (the library immediately truncates to K modes).
//
// Tall matrices (m ≥ 2n) are reduced with a QR factorization first, so the
// expensive iteration runs on the small n×n triangular factor — the same
// strategy the paper leans on throughout (Algorithm 1, step I1/I2).
func SVD(a *mat.Dense) (u *mat.Dense, s []float64, v *mat.Dense) {
	return SVDWith(nil, a)
}

// SVDWith is SVD drawing temporaries and the returned factors from ws. The
// caller owns u, s and v and may return them to the workspace when done.
func SVDWith(ws *mat.Workspace, a *mat.Dense) (u *mat.Dense, s []float64, v *mat.Dense) {
	return svdWith(ws, a, true)
}

// SVDLeftWith is SVDWith for callers that throw V away: the streaming
// update, the parallel QR's small SVD and the pairwise merge. It neither
// accumulates nor rotates the right singular vectors, and no step that
// updates U or s reads them, so U and s are bit-identical to SVDWith's.
// A wide input (m < n) still needs V of its transpose and saves nothing.
func SVDLeftWith(ws *mat.Workspace, a *mat.Dense) (u *mat.Dense, s []float64) {
	u, s, _ = svdWith(ws, a, false)
	return u, s
}

// svdWith is SVDWith, returning a nil V unless wantV is set.
func svdWith(ws *mat.Workspace, a *mat.Dense, wantV bool) (u *mat.Dense, s []float64, v *mat.Dense) {
	m, n := a.Dims()
	if m == 0 || n == 0 {
		if wantV {
			v = mat.New(n, 0)
		}
		return mat.New(m, 0), nil, v
	}
	if e := Equilibration(a); e != 0 {
		// Factor 2^e·A, whose largest entry is near 1, and scale the
		// singular values back. Scaling by a power of two is exact, so U
		// and V are those of A; matrices already inside the range never
		// take this branch, so their results are untouched.
		scaled := ws.GetUninit(m, n)
		mat.ScaleInto(scaled, math.Ldexp(1, e), a)
		u, s, v = svdWith(ws, scaled, wantV)
		ws.Put(scaled)
		for i := range s {
			s[i] = math.Ldexp(s[i], -e)
		}
		return u, s, v
	}
	if m < n {
		// SVD(Aᵀ) = V·S·Uᵀ: swap the roles of the factor matrices.
		at := ws.GetUninit(n, m)
		a.TInto(at)
		vt, s, ut := svdWith(ws, at, true)
		ws.Put(at)
		if !wantV {
			ws.Put(vt)
			vt = nil
		}
		return ut, s, vt
	}
	if m >= 2*n {
		at := ws.GetUninit(n, m)
		a.TInto(at)
		f, r := FactorQR(ws, at)
		ur, s, v := svdSquareish(ws, r, wantV)
		u := ws.GetUninit(m, ur.Cols())
		f.MulQInto(ws, u, ur)
		f.Release(ws)
		ws.Put(at)
		ws.Put(r)
		ws.Put(ur)
		return u, s, v
	}
	return svdSquareish(ws, a, wantV)
}

// Equilibration returns the exponent e of the power of two SVDWith scales
// its input by: 0 while the largest |entry| lies in [2⁻⁴⁰⁰, 2⁴⁰⁰] (or the
// matrix is zero or not finite), otherwise the e that brings it near 1.
// Outside that range squares — the Golub–Reinsch iteration's, or a Gram
// matrix's — overflow or lose their precision to underflow.
func Equilibration(a *mat.Dense) int {
	mx := a.MaxAbs()
	if mx == 0 || (mx >= 0x1p-400 && mx <= 0x1p400) || math.IsInf(mx, 0) || math.IsNaN(mx) {
		return 0
	}
	_, e := math.Frexp(mx)
	return min(-e, 1023) // 2^1023 is the largest finite power of two
}

// SVDTruncated computes the thin SVD and keeps only the leading k triplets.
// If k exceeds min(m, n) the full thin SVD is returned.
func SVDTruncated(a *mat.Dense, k int) (u *mat.Dense, s []float64, v *mat.Dense) {
	if k < 0 {
		panic(fmt.Sprintf("linalg: SVDTruncated negative k=%d", k))
	}
	u, s, v = SVD(a)
	if k >= len(s) {
		return u, s, v
	}
	return u.SliceCols(0, k), s[:k], v.SliceCols(0, k)
}

// svdSquareish runs Golub–Reinsch on an m×n matrix with m ≥ n, falling back
// to one-sided Jacobi if the iteration fails to converge. V is nil unless
// wantV is set.
func svdSquareish(ws *mat.Workspace, a *mat.Dense, wantV bool) (u *mat.Dense, s []float64, v *mat.Dense) {
	_, n := a.Dims()
	uw := ws.GetUninit(a.Rows(), n)
	uw.CopyFrom(a)
	s = ws.GetFloats(n)
	if wantV {
		v = ws.Get(n, n)
	}
	if err := golubReinsch(ws, uw, s, v); err != nil {
		ws.Put(uw)
		ws.Put(v)
		ws.PutFloats(s)
		u, s, v = JacobiSVD(a)
		if !wantV {
			v = nil
		}
		return u, s, v
	}
	sortSVDDescending(ws, uw, s, v)
	// Zero out numerically negative values introduced by sign flips.
	for i, sv := range s {
		if sv < 0 {
			s[i] = 0
		}
	}
	return uw, s, v
}

// sortSVDDescending reorders the SVD triplets in place so the singular
// values are non-increasing; U and V columns are permuted consistently. A
// nil V is skipped.
func sortSVDDescending(ws *mat.Workspace, u *mat.Dense, s []float64, v *mat.Dense) {
	n := len(s)
	idx := ws.GetInts(n)
	for i := range idx {
		idx[i] = i
	}
	// Stable insertion sort, descending: the values arrive nearly ordered
	// and, unlike sort.SliceStable, this allocates nothing.
	for i := 1; i < n; i++ {
		k := idx[i]
		key := s[k]
		j := i - 1
		for j >= 0 && s[idx[j]] < key {
			idx[j+1] = idx[j]
			j--
		}
		idx[j+1] = k
	}
	permuteColumns(ws, u, idx)
	if v != nil {
		permuteColumns(ws, v, idx)
	}
	ss := ws.GetFloats(n)
	for i, j := range idx {
		ss[i] = s[j]
	}
	copy(s, ss)
	ws.PutFloats(ss)
	ws.PutInts(idx)
}

// permuteColumns rearranges the columns of m so that new column i is old
// column idx[i], row by row through a workspace staging buffer.
func permuteColumns(ws *mat.Workspace, m *mat.Dense, idx []int) {
	r, c := m.Dims()
	if len(idx) != c {
		panic(fmt.Sprintf("linalg: permutation length %d, want %d", len(idx), c))
	}
	tmp := ws.GetUninit(r, c)
	td, md := tmp.RawData(), m.RawData()
	for i := 0; i < r; i++ {
		trow, mrow := td[i*c:(i+1)*c], md[i*c:(i+1)*c]
		for newJ, oldJ := range idx {
			trow[newJ] = mrow[oldJ]
		}
	}
	m.CopyFrom(tmp)
	ws.Put(tmp)
}

// pythag returns sqrt(a²+b²) without destructive underflow or overflow.
func pythag(a, b float64) float64 {
	absa, absb := math.Abs(a), math.Abs(b)
	if absa > absb {
		r := absb / absa
		return absa * math.Sqrt(1+r*r)
	}
	if absb == 0 {
		return 0
	}
	r := absa / absb
	return absb * math.Sqrt(1+r*r)
}

// signOf returns |a| with the sign of b (the Fortran SIGN intrinsic).
func signOf(a, b float64) float64 {
	if b >= 0 {
		return math.Abs(a)
	}
	return -math.Abs(a)
}

// golubReinsch performs the classical Golub–Reinsch SVD of the m×n matrix
// stored in u (m ≥ n): Householder bidiagonalization followed by implicit
// shifted QR on the bidiagonal form. On return u holds the left singular
// vectors (m×n), w the singular values and v, unless nil, the right
// singular vectors (n×n); a nil v skips every step that only builds V.
// Values are not yet sorted and may require sign cleanup. The row views
// and the superdiagonal scratch come from ws.
//
// The routine is a 0-based port of the classical ALGOL procedure of Golub &
// Reinsch as popularized by the svdcmp formulation.
func golubReinsch(ws *mat.Workspace, uD *mat.Dense, w []float64, vD *mat.Dense) error {
	m, n := uD.Dims()
	u := ws.RowViews(uD)
	defer ws.PutRowViews(u)
	var v [][]float64
	if vD != nil {
		v = ws.RowViews(vD)
		defer ws.PutRowViews(v)
	}
	rv1 := ws.GetFloats(n)
	defer ws.PutFloats(rv1)
	var g, scale, anorm float64
	var l int

	// Householder reduction to bidiagonal form.
	for i := 0; i < n; i++ {
		l = i + 1
		rv1[i] = scale * g
		g, scale = 0, 0
		s := 0.0
		if i < m {
			for k := i; k < m; k++ {
				scale += math.Abs(u[k][i])
			}
			if scale != 0 {
				for k := i; k < m; k++ {
					u[k][i] /= scale
					s += u[k][i] * u[k][i]
				}
				f := u[i][i]
				g = -signOf(math.Sqrt(s), f)
				h := f*g - s
				u[i][i] = f - g
				for j := l; j < n; j++ {
					s = 0
					for k := i; k < m; k++ {
						s += u[k][i] * u[k][j]
					}
					f = s / h
					for k := i; k < m; k++ {
						u[k][j] += f * u[k][i]
					}
				}
				for k := i; k < m; k++ {
					u[k][i] *= scale
				}
			}
		}
		w[i] = scale * g
		g, s, scale = 0, 0, 0
		if i < m && i != n-1 {
			for k := l; k < n; k++ {
				scale += math.Abs(u[i][k])
			}
			if scale != 0 {
				for k := l; k < n; k++ {
					u[i][k] /= scale
					s += u[i][k] * u[i][k]
				}
				f := u[i][l]
				g = -signOf(math.Sqrt(s), f)
				h := f*g - s
				u[i][l] = f - g
				for k := l; k < n; k++ {
					rv1[k] = u[i][k] / h
				}
				for j := l; j < m; j++ {
					s = 0
					for k := l; k < n; k++ {
						s += u[j][k] * u[i][k]
					}
					for k := l; k < n; k++ {
						u[j][k] += s * rv1[k]
					}
				}
				for k := l; k < n; k++ {
					u[i][k] *= scale
				}
			}
		}
		if t := math.Abs(w[i]) + math.Abs(rv1[i]); t > anorm {
			anorm = t
		}
	}

	// Accumulation of right-hand transformations. It reads the reflectors
	// stored in u's rows but writes only v.
	for i := n - 1; v != nil && i >= 0; i-- {
		if i < n-1 {
			if g != 0 {
				for j := l; j < n; j++ {
					// Double division avoids possible underflow.
					v[j][i] = (u[i][j] / u[i][l]) / g
				}
				for j := l; j < n; j++ {
					s := 0.0
					for k := l; k < n; k++ {
						s += u[i][k] * v[k][j]
					}
					for k := l; k < n; k++ {
						v[k][j] += s * v[k][i]
					}
				}
			}
			for j := l; j < n; j++ {
				v[i][j] = 0
				v[j][i] = 0
			}
		}
		v[i][i] = 1
		g = rv1[i]
		l = i
	}

	// Accumulation of left-hand transformations.
	for i := min(m, n) - 1; i >= 0; i-- {
		l := i + 1
		g := w[i]
		for j := l; j < n; j++ {
			u[i][j] = 0
		}
		if g != 0 {
			g = 1 / g
			for j := l; j < n; j++ {
				s := 0.0
				for k := l; k < m; k++ {
					s += u[k][i] * u[k][j]
				}
				f := (s / u[i][i]) * g
				for k := i; k < m; k++ {
					u[k][j] += f * u[k][i]
				}
			}
			for j := i; j < m; j++ {
				u[j][i] *= g
			}
		} else {
			for j := i; j < m; j++ {
				u[j][i] = 0
			}
		}
		u[i][i]++
	}

	// Diagonalization of the bidiagonal form.
	for k := n - 1; k >= 0; k-- {
		for its := 0; ; its++ {
			flag := true
			var nm int
			lo := 0
			for lo = k; lo >= 0; lo-- {
				nm = lo - 1
				if math.Abs(rv1[lo])+anorm == anorm {
					flag = false
					break
				}
				// rv1[0] == 0, so nm never reaches -1 here.
				if math.Abs(w[nm])+anorm == anorm {
					break
				}
			}
			if flag {
				// Cancellation of rv1[lo] when lo > 0.
				c, s := 0.0, 1.0
				for i := lo; i <= k; i++ {
					f := s * rv1[i]
					rv1[i] = c * rv1[i]
					if math.Abs(f)+anorm == anorm {
						break
					}
					g := w[i]
					h := pythag(f, g)
					w[i] = h
					h = 1 / h
					c = g * h
					s = -f * h
					for j := 0; j < m; j++ {
						y := u[j][nm]
						z := u[j][i]
						u[j][nm] = y*c + z*s
						u[j][i] = z*c - y*s
					}
				}
			}
			z := w[k]
			if lo == k {
				// Convergence; force the singular value non-negative.
				if z < 0 {
					w[k] = -z
					for j := 0; j < len(v); j++ {
						v[j][k] = -v[j][k]
					}
				}
				break
			}
			if its == maxSVDIterations-1 {
				return errNoConvergence
			}
			// Shift from the bottom 2×2 minor.
			x := w[lo]
			nm = k - 1
			y := w[nm]
			g := rv1[nm]
			h := rv1[k]
			f := ((y-z)*(y+z) + (g-h)*(g+h)) / (2 * h * y)
			g = pythag(f, 1)
			f = ((x-z)*(x+z) + h*((y/(f+signOf(g, f)))-h)) / x
			// Next QR transformation.
			c, s := 1.0, 1.0
			for j := lo; j <= nm; j++ {
				i := j + 1
				g = rv1[i]
				y = w[i]
				h = s * g
				g = c * g
				z = pythag(f, h)
				rv1[j] = z
				c = f / z
				s = h / z
				f = x*c + g*s
				g = g*c - x*s
				h = y * s
				y *= c
				for jj := 0; jj < len(v); jj++ {
					xx := v[jj][j]
					zz := v[jj][i]
					v[jj][j] = xx*c + zz*s
					v[jj][i] = zz*c - xx*s
				}
				z = pythag(f, h)
				w[j] = z
				if z != 0 {
					z = 1 / z
					c = f * z
					s = h * z
				}
				f = c*g + s*y
				x = c*y - s*g
				for jj := 0; jj < m; jj++ {
					yy := u[jj][j]
					zz := u[jj][i]
					u[jj][j] = yy*c + zz*s
					u[jj][i] = zz*c - yy*s
				}
			}
			rv1[lo] = 0
			rv1[k] = f
			w[k] = x
		}
	}
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
