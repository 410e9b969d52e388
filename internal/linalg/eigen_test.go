package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// randomSPDDense returns BᵀB + shift·I for a seeded random n×n B with
// entries spread over scale decades, so the spectrum spans several orders
// of magnitude like a stiffness matrix does.
func randomSPDDense(rng *rand.Rand, n int, scale, shift float64) *Dense {
	b := NewDense(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64() * math.Pow(10, scale*rng.Float64())
	}
	a := b.Transpose().Mul(b) // exactly symmetric: (BᵀB)ᵢⱼ and (BᵀB)ⱼᵢ sum the same products
	for i := 0; i < n; i++ {
		a.Add(i, i, shift)
	}
	return a
}

// checkGeneralPairs asserts the generalized eigenpair contract: ascending
// eigenvalues, small relative residuals ‖K·x − λ·M·x‖ and M-orthonormal
// eigenvectors.
func checkGeneralPairs(t *testing.T, k, m *Dense, vals []float64, vecs *Dense, tol float64) {
	t.Helper()
	n := k.Rows
	if len(vals) != n || vecs.Rows != n || vecs.Cols != n {
		t.Fatalf("got %d values and a %d×%d vector matrix for n = %d", len(vals), vecs.Rows, vecs.Cols, n)
	}
	for i := 1; i < n; i++ {
		if vals[i] < vals[i-1] {
			t.Fatalf("eigenvalues not ascending at %d: %v < %v", i, vals[i], vals[i-1])
		}
	}
	normK, normM := NormInf(k.Data)*float64(n), NormInf(m.Data)*float64(n)
	xs := make([][]float64, n)
	mxs := make([][]float64, n)
	for j := 0; j < n; j++ {
		x := make([]float64, n)
		for i := range x {
			x[i] = vecs.At(i, j)
		}
		xs[j], mxs[j] = x, m.MulVec(x)
		kx := k.MulVec(x)
		res := 0.0
		for i := range kx {
			res = math.Max(res, math.Abs(kx[i]-vals[j]*mxs[j][i]))
		}
		if scale := (normK + math.Abs(vals[j])*normM) * NormInf(x); res > tol*scale {
			t.Errorf("pair %d: residual %g exceeds %g·%g", j, res, tol, scale)
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if got := Dot(xs[i], mxs[j]); math.Abs(got-want) > tol*float64(n) {
				t.Errorf("x%dᵀ·M·x%d = %v, want %v", i, j, got, want)
			}
		}
	}
}

// sameBits reports whether a and b hold bitwise-identical values.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestEigenGeneralRandomSPDPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 3, 7, 16, 41} {
		for trial := 0; trial < 3; trial++ {
			k := randomSPDDense(rng, n, 3, 1e-3)
			m := randomSPDDense(rng, n, 0.5, 1)
			vals, vecs, err := EigenGeneral(k, m)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			checkGeneralPairs(t, k, m, vals, vecs, 1e-12)
			only, err := EigenGeneralValues(k, m)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(only, vals) {
				t.Errorf("n=%d: values-only path %v differs from paired path %v", n, only, vals)
			}
		}
	}
}

func identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

func TestEigenRepeatedEigenvalues(t *testing.T) {
	// A diagonal matrix with two ties: the values come out exactly, and
	// the vectors spanning each tied pair are still orthonormal.
	d := []float64{2, 1, 2, 3, 1}
	a := NewDense(len(d), len(d))
	for i, v := range d {
		a.Set(i, i, v)
	}
	want := []float64{1, 1, 2, 2, 3}
	vals, vecs, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(vals, want) {
		t.Errorf("EigenSym values %v, want %v", vals, want)
	}
	checkGeneralPairs(t, a, identity(len(d)), vals, vecs, 1e-14)

	// The same ties as a generalized problem with a non-trivial mass.
	m := NewDense(len(d), len(d))
	k := NewDense(len(d), len(d))
	for i, v := range d {
		m.Set(i, i, 4)
		k.Set(i, i, 4*v)
	}
	gvals, gvecs, err := EigenGeneral(k, m)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		if math.Abs(gvals[i]-w) > 1e-14 {
			t.Errorf("EigenGeneral value %d = %v, want %v", i, gvals[i], w)
		}
	}
	checkGeneralPairs(t, k, m, gvals, gvecs, 1e-14)
}

func TestEigenGeneralSemiDefiniteStiffness(t *testing.T) {
	// A free-free three-mass chain (k = 4, unit masses) has a rigid-body
	// mode: K is singular, its Cholesky factorisation fails, and the
	// solver takes the mass-factor path.  λ = 0, k, 3k.
	k := denseFrom(3, 3,
		4, -4, 0,
		-4, 8, -4,
		0, -4, 4)
	m := identity(3)
	vals, vecs, err := EigenGeneral(k, m)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range []float64{0, 4, 12} {
		if math.Abs(vals[i]-w) > 1e-13 {
			t.Errorf("λ%d = %v, want %v", i, vals[i], w)
		}
	}
	checkGeneralPairs(t, k, m, vals, vecs, 1e-14)
	only, err := EigenGeneralValues(k, m)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(only, vals) {
		t.Errorf("values-only path %v differs from paired path %v", only, vals)
	}
}

func TestEigenGeneralLowModesKeepRelativeAccuracy(t *testing.T) {
	// A soft mode under a stiff coupling: K = [[1, 1e3], [1e3, 1e6+1]]
	// (every entry exact) has det 1 and trace 1e6+2, so λ_min = 1/λ_max ≈
	// 1e-6 is known to an ulp.  It must come out to full relative
	// precision, not to an ulp of the 1e6 mode.
	k := denseFrom(2, 2, 1, 1e3, 1e3, 1e6+1)
	tr := 1e6 + 2.0
	want := 2 / (tr + math.Sqrt(tr*tr-4))
	vals, err := EigenGeneralValues(k, identity(2))
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(vals[0]-want) / want; rel > 1e-14 {
		t.Errorf("low mode %v, want %v (%.2g relative)", vals[0], want, rel)
	}
}

func TestEigenInputErrors(t *testing.T) {
	sym := denseFrom(2, 2, 2, 1, 1, 2)
	asym := denseFrom(2, 2, 2, 1, 0, 2)
	for _, tc := range []struct {
		name string
		k, m *Dense
	}{
		{"dimension mismatch", sym, identity(3)},
		{"non-square", NewDense(2, 3), identity(2)},
		{"asymmetric stiffness", asym, identity(2)},
		{"asymmetric mass", sym, asym},
		{"indefinite mass", sym, denseFrom(2, 2, 1, 0, 0, -1)},
	} {
		if _, _, err := EigenGeneral(tc.k, tc.m); err == nil {
			t.Errorf("EigenGeneral: %s should error", tc.name)
		}
		if _, err := EigenGeneralValues(tc.k, tc.m); err == nil {
			t.Errorf("EigenGeneralValues: %s should error", tc.name)
		}
	}
	if _, _, err := EigenSym(NewDense(2, 3)); err == nil {
		t.Error("EigenSym: non-square input should error")
	}
}
