package linalg

import (
	"math"

	"goparsvd/internal/mat"
)

// jacobiMaxSweeps bounds the number of full column-pair sweeps of the
// one-sided Jacobi SVD. Convergence is normally reached in well under 30
// sweeps for any conditioning encountered here.
const jacobiMaxSweeps = 60

// JacobiSVD computes the thin SVD A = U·diag(s)·Vᵀ using one-sided Jacobi
// rotations (Hestenes' method).
//
// It is slower than the Golub–Reinsch path but unconditionally convergent
// and slightly more accurate for small singular values, which makes it both
// the fallback for SVD and the independent cross-check oracle in the test
// suite. Shapes follow SVD: U is m×t, V is n×t, t = min(m, n).
func JacobiSVD(a *mat.Dense) (u *mat.Dense, s []float64, v *mat.Dense) {
	m, n := a.Dims()
	if m == 0 || n == 0 {
		return mat.New(m, 0), nil, mat.New(n, 0)
	}
	if m < n {
		vt, s, ut := JacobiSVD(a.T())
		return ut, s, vt
	}
	u = a.Clone()
	v = mat.Eye(n)

	const tol = 1e-14
	for sweep := 0; sweep < jacobiMaxSweeps; sweep++ {
		rotated := false
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				var alpha, beta, gamma float64
				for i := 0; i < m; i++ {
					up := u.At(i, p)
					uq := u.At(i, q)
					alpha += up * up
					beta += uq * uq
					gamma += up * uq
				}
				if math.Abs(gamma) <= tol*math.Sqrt(alpha*beta) || gamma == 0 {
					continue
				}
				rotated = true
				// Compute the rotation that orthogonalizes columns p and q.
				zeta := (beta - alpha) / (2 * gamma)
				t := signOf(1, zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
				c := 1 / math.Sqrt(1+t*t)
				sn := c * t
				rotateColumns(u, p, q, c, sn)
				rotateColumns(v, p, q, c, sn)
			}
		}
		if !rotated {
			break
		}
	}

	// Singular values are the column norms of the rotated U; normalize.
	s = make([]float64, n)
	for j := 0; j < n; j++ {
		s[j] = u.ColNorm(j)
		if s[j] > 0 {
			inv := 1 / s[j]
			for i := 0; i < m; i++ {
				u.Set(i, j, u.At(i, j)*inv)
			}
		}
	}
	sortSVDDescending(nil, u, s, v)
	return u, s, v
}

// rotateColumns applies the plane rotation [c -s; s c] to columns p and q of
// m in place: new_p = c·p − s·q, new_q = s·p + c·q.
func rotateColumns(m *mat.Dense, p, q int, c, s float64) {
	rows := m.Rows()
	for i := 0; i < rows; i++ {
		vp := m.At(i, p)
		vq := m.At(i, q)
		m.Set(i, p, c*vp-s*vq)
		m.Set(i, q, s*vp+c*vq)
	}
}

// EigSym computes the eigendecomposition A = V·diag(λ)·Vᵀ of a symmetric
// matrix using the cyclic Jacobi method. Eigenvalues are returned in
// descending order with the matching eigenvectors as columns of V.
//
// This is the stand-in for numpy.linalg.eigh, used by the method-of-
// snapshots path of APMOS (eigendecomposition of the Gram matrix AᵀA).
func EigSym(a *mat.Dense) (eigs []float64, v *mat.Dense) {
	n, c := a.Dims()
	if n != c {
		panic("linalg: EigSym needs a square matrix")
	}
	w := a.Clone()
	v = mat.Eye(n)
	if n == 0 {
		return nil, v
	}

	for sweep := 0; sweep < jacobiMaxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n-1; i++ {
			for j := i + 1; j < n; j++ {
				off += w.At(i, j) * w.At(i, j)
			}
		}
		if math.Sqrt(2*off) <= 1e-14*w.FroNorm() {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if apq == 0 {
					continue
				}
				app := w.At(p, p)
				aqq := w.At(q, q)
				if math.Abs(apq) <= 1e-16*(math.Abs(app)+math.Abs(aqq)) {
					continue
				}
				// Classic symmetric Jacobi rotation.
				theta := (aqq - app) / (2 * apq)
				t := signOf(1, theta) / (math.Abs(theta) + math.Sqrt(1+theta*theta))
				cth := 1 / math.Sqrt(1+t*t)
				sth := cth * t
				applySymJacobi(w, p, q, cth, sth)
				rotateColumnsEig(v, p, q, cth, sth)
			}
		}
	}

	eigs = w.Diag()
	// Sort descending with eigenvector permutation.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < n-1; i++ {
		maxJ := i
		for j := i + 1; j < n; j++ {
			if eigs[idx[j]] > eigs[idx[maxJ]] {
				maxJ = j
			}
		}
		idx[i], idx[maxJ] = idx[maxJ], idx[i]
	}
	sorted := make([]float64, n)
	for i, j := range idx {
		sorted[i] = eigs[j]
	}
	permuteColumns(nil, v, idx)
	return sorted, v
}

// applySymJacobi performs the two-sided rotation JᵀWJ on the symmetric
// matrix w for the (p,q) plane with cosine c and sine s.
func applySymJacobi(w *mat.Dense, p, q int, c, s float64) {
	n := w.Rows()
	app := w.At(p, p)
	aqq := w.At(q, q)
	apq := w.At(p, q)
	w.Set(p, p, c*c*app-2*s*c*apq+s*s*aqq)
	w.Set(q, q, s*s*app+2*s*c*apq+c*c*aqq)
	w.Set(p, q, 0)
	w.Set(q, p, 0)
	for i := 0; i < n; i++ {
		if i == p || i == q {
			continue
		}
		aip := w.At(i, p)
		aiq := w.At(i, q)
		w.Set(i, p, c*aip-s*aiq)
		w.Set(p, i, c*aip-s*aiq)
		w.Set(i, q, s*aip+c*aiq)
		w.Set(q, i, s*aip+c*aiq)
	}
}

// rotateColumnsEig applies the rotation used by EigSym to the eigenvector
// accumulator: new_p = c·p − s·q, new_q = s·p + c·q.
func rotateColumnsEig(m *mat.Dense, p, q int, c, s float64) {
	rotateColumns(m, p, q, c, s)
}
