package linalg

import (
	"fmt"
	"math"
	"sort"
)

// maxQLIter caps the implicit QL iterations spent on one eigenvalue.  QL
// converges cubically for symmetric tridiagonals (two or three iterations
// per eigenvalue are typical); EISPACK's tql2 gives up at 30.
const maxQLIter = 30

// EigenSym computes all eigenvalues and eigenvectors of a symmetric matrix.
// Eigenpairs are returned in ascending eigenvalue order; column j of the
// returned matrix is the unit eigenvector for eigenvalue j.  The input
// matrix is not modified.
//
// The matrix is reduced to tridiagonal form by Householder reflections and
// the tridiagonal is diagonalised by the implicit-shift QL algorithm — the
// EISPACK tred2/tql2 pair.  Both phases are backward stable, so the
// eigenvalues are accurate to a few ulps of ‖A‖ and the vectors are
// orthonormal to machine precision, which the modal superposition code
// relies on.  Deflation happens at machine ε; an eigenvalue that needs
// more than a fixed number of QL iterations is reported as an error.
func EigenSym(a *Dense) ([]float64, *Dense, error) {
	if a.Rows != a.Cols {
		return nil, nil, fmt.Errorf("linalg: EigenSym requires a square matrix")
	}
	if !a.IsSymmetric(1e-8 * (1 + NormInf(a.Data))) {
		return nil, nil, fmt.Errorf("linalg: EigenSym requires a symmetric matrix")
	}
	z := append([]float64(nil), a.Data...)
	vals, order, err := symEigen(z, a.Rows, true)
	if err != nil {
		return nil, nil, err
	}
	return vals, rowsToCols(z, a.Rows, order), nil
}

// EigenGeneral solves the symmetric generalized eigenproblem
// K·x = λ·M·x with K symmetric and M symmetric positive definite — the
// structural-dynamics modal problem — and returns eigenvalues ascending
// with M-orthonormal eigenvectors as columns.
//
// The pencil is reduced to a standard symmetric problem through a
// Cholesky factor.  QL resolves each eigenvalue to a few ulps of the
// largest, so a well-supported structure, whose lowest modes sit many
// decades below its highest mesh modes, would lose digits exactly in the
// modes that matter.  When K is positive definite the solver therefore
// works on the inverted pencil M·x = μ·K·x (μ = 1/λ) through K = L·Lᵀ and
// C = L⁻¹·M·L⁻ᵀ, which resolves the lowest modes to full relative
// precision.  A semi-definite K (rigid-body modes) falls back to M = L·Lᵀ
// and C = L⁻¹·K·L⁻ᵀ.
func EigenGeneral(k, m *Dense) ([]float64, *Dense, error) {
	return eigenGeneral(k, m, true)
}

// EigenGeneralValues returns the eigenvalues of K·x = λ·M·x in ascending
// order — bitwise those of EigenGeneral — without forming eigenvectors.
// It holds only one Cholesky factor and one n×n work buffer.
func EigenGeneralValues(k, m *Dense) ([]float64, error) {
	vals, _, err := eigenGeneral(k, m, false)
	return vals, err
}

func eigenGeneral(k, m *Dense, vectors bool) ([]float64, *Dense, error) {
	if k.Rows != k.Cols || m.Rows != m.Cols || k.Rows != m.Rows {
		return nil, nil, fmt.Errorf("linalg: EigenGeneral dimension mismatch")
	}
	if !k.IsSymmetric(1e-8 * (1 + NormInf(k.Data))) {
		return nil, nil, fmt.Errorf("linalg: EigenGeneral requires a symmetric stiffness matrix")
	}
	if !m.IsSymmetric(1e-8 * (1 + NormInf(m.Data))) {
		return nil, nil, fmt.Errorf("linalg: EigenGeneral requires a symmetric mass matrix")
	}
	n := k.Rows
	if lk, err := FactorCholesky(k); err == nil {
		l := lk.L().Data
		c := congruence(l, m.Data, n)
		mu, order, err := symEigen(c, n, vectors)
		if err != nil {
			return nil, nil, err
		}
		// C is congruent to M, so all μ > 0 exactly when M is positive
		// definite; otherwise take the M-factor path, which reports it.
		if mu[0] > 0 {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = 1 / mu[n-1-i]
			}
			if !vectors {
				return vals, nil, nil
			}
			// x = L⁻ᵀ·y has xᵀ·M·x = μ; scale it to unit modal mass.
			backSubstituteRows(l, c, n)
			for i, o := range order {
				s := 1 / math.Sqrt(mu[i])
				row := c[o*n : (o+1)*n]
				for p := range row {
					row[p] *= s
				}
			}
			for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
			return vals, rowsToCols(c, n, order), nil
		}
	}
	chol, err := FactorCholesky(m)
	if err != nil {
		return nil, nil, fmt.Errorf("linalg: mass matrix not SPD: %w", err)
	}
	l := chol.L().Data
	c := congruence(l, k.Data, n)
	vals, order, err := symEigen(c, n, vectors)
	if err != nil || !vectors {
		return vals, nil, err
	}
	backSubstituteRows(l, c, n)
	return vals, rowsToCols(c, n, order), nil
}

// congruence returns the row-major entries of C = L⁻¹·A·L⁻ᵀ for the
// row-major lower-triangular factor l and symmetric a.  Both triangular
// solves run row by row in place in C's buffer: B = L⁻¹·A by forward
// substitution over whole rows of A, then each row b of B becomes L⁻¹·b
// (row i of C = (L⁻¹·bᵢ)ᵀ), of which only the lower triangle is computed
// and then mirrored, since C is symmetric.
func congruence(l, a []float64, n int) []float64 {
	c := append([]float64(nil), a...)
	// Row i of B = (row i of A − Σ_{p<i} L[i][p]·row p of B) / L[i][i].
	for i := 0; i < n; i++ {
		bi := c[i*n : (i+1)*n]
		li := l[i*n : i*n+i+1]
		for p, v := range li[:i] {
			if v == 0 {
				continue
			}
			for q, w := range c[p*n : (p+1)*n][:len(bi)] {
				bi[q] -= v * w
			}
		}
		inv := 1 / li[i]
		for q := range bi {
			bi[q] *= inv
		}
	}
	// Row i of C: forward-solve L·y = bᵢ for y[0..i].
	for i := 0; i < n; i++ {
		y := c[i*n : (i+1)*n]
		for j := 0; j <= i; j++ {
			lj := l[j*n : j*n+j]
			yp := y[:len(lj)]
			s := y[j]
			for p, v := range lj {
				s -= v * yp[p]
			}
			y[j] = s / l[j*n+j]
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			c[i*n+j] = c[j*n+i]
		}
	}
	return c
}

// backSubstituteRows replaces every row y of z by x with Lᵀ·x = y, column
// oriented so each update walks a contiguous row of the factor l.
func backSubstituteRows(l, z []float64, n int) {
	for r := 0; r < n; r++ {
		x := z[r*n : (r+1)*n]
		for i := n - 1; i >= 0; i-- {
			li := l[i*n : i*n+i]
			xp := x[:len(li)]
			xi := x[i] / l[i*n+i]
			x[i] = xi
			for p, v := range li {
				xp[p] -= v * xi
			}
		}
	}
}

// symEigen diagonalises the symmetric n×n matrix whose row-major entries
// are z, in place: Householder tridiagonalisation (tred2) followed by
// implicit-shift QL (tql2), after the EISPACK/JAMA formulation.  It
// returns the eigenvalues ascending and, in order, the index of each one
// among the unsorted results.  When vectors is true, row order[j] of z
// ends up holding the orthonormal eigenvector of vals[j]; otherwise z is
// scratch.
//
// Every inner loop of tred2/tql2 walks the working matrix V down a
// column, so z holds V column-major — z[j*n+k] is V[k][j] — which makes
// each of those loops a contiguous slice walk and leaves V's columns, the
// eigenvectors, in z's rows.  The input is symmetric, so reading it
// column-major changes nothing.
func symEigen(z []float64, n int, vectors bool) (vals []float64, order []int, err error) {
	d := make([]float64, n)
	e := make([]float64, n)
	tred2(z, n, d, e, vectors)
	if err := tql2(z, n, d, e, vectors); err != nil {
		return nil, nil, err
	}
	order = make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return d[order[a]] < d[order[b]] })
	vals = make([]float64, n)
	for i, o := range order {
		vals[i] = d[o]
	}
	return vals, order, nil
}

// tred2 reduces the symmetric matrix in z (read as column-major V, see
// symEigen) to tridiagonal form: on return d holds the diagonal and
// e[1..n-1] the subdiagonal.  With vectors set, z is overwritten by the
// orthogonal transformation Q (columns of V, rows of z) that tql2 then
// rotates into the eigenvectors; without it the Householder vectors left
// in z are not accumulated.
func tred2(z []float64, n int, d, e []float64, vectors bool) {
	col := func(j int) []float64 { return z[j*n : (j+1)*n] }
	last := n - 1
	for j := 0; j < n; j++ {
		d[j] = z[j*n+last]
	}
	for i := n - 1; i > 0; i-- {
		// Scale to avoid under/overflow.
		scale, h := 0.0, 0.0
		for _, v := range d[:i] {
			scale += math.Abs(v)
		}
		if scale == 0 {
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				cj := col(j)
				d[j] = cj[i-1]
				cj[i] = 0
				z[i*n+j] = 0
			}
			d[i] = h
			continue
		}
		// Generate the Householder vector.
		for k := 0; k < i; k++ {
			d[k] /= scale
			h += d[k] * d[k]
		}
		f := d[i-1]
		g := math.Sqrt(h)
		if f > 0 {
			g = -g
		}
		e[i] = scale * g
		h -= f * g
		d[i-1] = f - g
		for j := 0; j < i; j++ {
			e[j] = 0
		}
		// Apply the similarity transformation to the remaining columns.
		ci := col(i)
		for j := 0; j < i; j++ {
			f = d[j]
			ci[j] = f
			cj := col(j)
			g = e[j] + cj[j]*f
			row := cj[j+1 : i]
			dk, ek := d[j+1 : i][:len(row)], e[j+1 : i][:len(row)]
			for k, v := range row {
				g += v * dk[k]
				ek[k] += v * f
			}
			e[j] = g
		}
		f = 0
		for j := 0; j < i; j++ {
			e[j] /= h
			f += e[j] * d[j]
		}
		hh := f / (h + h)
		for j := 0; j < i; j++ {
			e[j] -= hh * d[j]
		}
		for j := 0; j < i; j++ {
			f, g = d[j], e[j]
			cj := col(j)
			row := cj[j:i]
			dk, ek := d[j:i][:len(row)], e[j:i][:len(row)]
			for k := range row {
				row[k] -= f*ek[k] + g*dk[k]
			}
			d[j] = cj[i-1]
			cj[i] = 0
		}
		d[i] = h
	}
	if !vectors {
		for j := 0; j < n; j++ {
			d[j] = z[j*n+j]
		}
		e[0] = 0
		return
	}
	// Accumulate the transformations.
	for i := 0; i < n-1; i++ {
		ci := col(i)
		ci[last] = ci[i]
		ci[i] = 1
		next := col(i + 1)
		if h := d[i+1]; h != 0 {
			for k := 0; k <= i; k++ {
				d[k] = next[k] / h
			}
			for j := 0; j <= i; j++ {
				cj := col(j)
				g := 0.0
				for k, v := range next[:i+1] {
					g += v * cj[k]
				}
				for k, v := range d[:i+1] {
					cj[k] -= g * v
				}
			}
		}
		for k := 0; k <= i; k++ {
			next[k] = 0
		}
	}
	for j := 0; j < n; j++ {
		cj := col(j)
		d[j] = cj[last]
		cj[last] = 0
	}
	z[last*n+last] = 1
	e[0] = 0
}

// tql2 diagonalises the symmetric tridiagonal (d, e[1..n-1]) left by tred2
// with the implicit-shift QL algorithm, leaving the (unsorted) eigenvalues
// in d.  With vectors set, every plane rotation is also applied to the
// rows of z, turning Q into the eigenvectors.
func tql2(z []float64, n int, d, e []float64, vectors bool) error {
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0
	f, tst1 := 0.0, 0.0
	const eps = 0x1p-52
	for l := 0; l < n; l++ {
		// Find a small subdiagonal element.
		tst1 = math.Max(tst1, math.Abs(d[l])+math.Abs(e[l]))
		m := l
		for m < n-1 && math.Abs(e[m]) > eps*tst1 {
			m++
		}
		// If m == l, d[l] is already an eigenvalue; otherwise iterate.
		for iter := 0; m > l; iter++ {
			if iter == maxQLIter {
				return fmt.Errorf("linalg: QL eigensolver did not converge in %d iterations for eigenvalue %d", maxQLIter, l)
			}
			// Compute the implicit shift.
			g := d[l]
			p := (d[l+1] - g) / (2 * e[l])
			r := math.Hypot(p, 1)
			if p < 0 {
				r = -r
			}
			d[l] = e[l] / (p + r)
			d[l+1] = e[l] * (p + r)
			dl1 := d[l+1]
			h := g - d[l]
			for i := l + 2; i < n; i++ {
				d[i] -= h
			}
			f += h
			// Implicit QL transformation.
			p = d[m]
			c, c2, c3 := 1.0, 1.0, 1.0
			el1 := e[l+1]
			s, s2 := 0.0, 0.0
			for i := m - 1; i >= l; i-- {
				c3, c2, s2 = c2, c, s
				g = c * e[i]
				h = c * p
				r = math.Hypot(p, e[i])
				e[i+1] = s * r
				s = e[i] / r
				c = p / r
				p = c*d[i] - s*g
				d[i+1] = h + s*(c*g+s*d[i])
				if vectors {
					zi, zi1 := z[i*n:(i+1)*n], z[(i+1)*n:(i+2)*n]
					for k, v := range zi1 {
						w := zi[k]
						zi1[k] = s*w + c*v
						zi[k] = c*w - s*v
					}
				}
			}
			p = -s * s2 * c3 * el1 * e[l] / dl1
			e[l] = s * p
			d[l] = c * p
			if math.Abs(e[l]) <= eps*tst1 {
				break
			}
		}
		d[l] += f
		e[l] = 0
	}
	return nil
}

// rowsToCols returns the n×n matrix whose column j is row order[j] of z.
func rowsToCols(z []float64, n int, order []int) *Dense {
	out := NewDense(n, n)
	for j, o := range order {
		for i, v := range z[o*n : (o+1)*n] {
			out.Data[i*n+j] = v
		}
	}
	return out
}
