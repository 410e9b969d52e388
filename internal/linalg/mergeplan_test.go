package linalg

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// referenceToCSR is the single-pass merge COO.ToCSR performed before it
// was split into Plan and Fill: sort the triplet indices, accumulate
// duplicates in sorted order, then compact exact cancellations.  It is
// kept here as the bitwise reference for the split.
func referenceToCSR(c *COO) *CSR {
	n := len(c.v)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if c.ri[ia] != c.ri[ib] {
			return c.ri[ia] < c.ri[ib]
		}
		return c.ci[ia] < c.ci[ib]
	})
	csr := &CSR{Rows: c.Rows, Cols: c.Cols, RowPtr: make([]int, c.Rows+1)}
	rows := make([]int, 0, n)
	lastR, lastC := -1, -1
	for _, idx := range order {
		r, col, v := c.ri[idx], c.ci[idx], c.v[idx]
		if r == lastR && col == lastC {
			csr.Val[len(csr.Val)-1] += v
			continue
		}
		csr.ColIdx = append(csr.ColIdx, col)
		csr.Val = append(csr.Val, v)
		rows = append(rows, r)
		lastR, lastC = r, col
	}
	keep := 0
	for i, v := range csr.Val {
		if v == 0 {
			continue
		}
		csr.Val[keep], csr.ColIdx[keep] = v, csr.ColIdx[i]
		csr.RowPtr[rows[i]+1]++
		keep++
	}
	csr.Val, csr.ColIdx = csr.Val[:keep], csr.ColIdx[:keep]
	for i := 0; i < c.Rows; i++ {
		csr.RowPtr[i+1] += csr.RowPtr[i]
	}
	return csr
}

// sameCSR fails unless got and want store identical arrays bit for bit.
func sameCSR(t *testing.T, label string, got, want *CSR) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols || len(got.RowPtr) != len(want.RowPtr) || got.NNZ() != want.NNZ() {
		t.Fatalf("%s: shape %d×%d nnz %d, want %d×%d nnz %d", label, got.Rows, got.Cols, got.NNZ(), want.Rows, want.Cols, want.NNZ())
	}
	for i := range want.RowPtr {
		if got.RowPtr[i] != want.RowPtr[i] {
			t.Fatalf("%s: RowPtr[%d] = %d, want %d", label, i, got.RowPtr[i], want.RowPtr[i])
		}
	}
	for k := range want.Val {
		if got.ColIdx[k] != want.ColIdx[k] || math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
			t.Fatalf("%s: entry %d = (%d, %v), want (%d, %v)", label, k, got.ColIdx[k], got.Val[k], want.ColIdx[k], want.Val[k])
		}
	}
}

// randomTriplets fills a builder with heavily duplicated triplets whose
// magnitudes span many decades, so the summation order shows in the
// low bits, plus a few pairs that cancel exactly.
func randomTriplets(rng *rand.Rand, n, count int) *COO {
	c := NewCOO(n, n)
	for k := 0; k < count; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		v := (rng.Float64() - 0.3) * math.Pow(10, float64(rng.Intn(12)-6))
		c.Add(i, j, v)
		if rng.Intn(40) == 0 {
			c.Add(i, j, -v)
		}
	}
	return c
}

func TestToCSRMatchesReferenceMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(30)
		c := randomTriplets(rng, n, rng.Intn(8*n*n+1))
		sameCSR(t, "ToCSR", c.ToCSR(), referenceToCSR(c))
	}
	sameCSR(t, "empty", NewCOO(3, 3).ToCSR(), referenceToCSR(NewCOO(3, 3)))
}

// TestMergePlanRefill pins the replay contract: with the (row, col)
// sequence fixed, refilling the entries the changed tail reaches gives
// the CSR a fresh ToCSR of the new values gives, bit for bit, and a tail
// value that cancels a sum is reported instead of stored.
func TestMergePlanRefill(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 25
	// Rows 0..n-1 carry random duplicated triplets; row n's diagonal
	// sums one head triplet and its tail term, so it can be made to
	// cancel exactly in either summation order.
	c := NewCOO(n+1, n+1)
	for k := 0; k < 6*n*n; k++ {
		c.Add(rng.Intn(n), rng.Intn(n), 1+rng.Float64()*math.Pow(10, float64(rng.Intn(8)-4)))
	}
	c.Add(n, n, 2.5)
	first := c.NNZ()
	for i := 0; i <= n; i++ { // the tail: one diagonal term per row
		c.Add(i, i, 1)
	}
	plan := c.Plan()
	v := c.Values()
	a := plan.Fill(v)
	sameCSR(t, "first fill", a, referenceToCSR(c))
	entries := plan.EntriesFrom(first)
	if len(entries) != n+1 {
		t.Fatalf("EntriesFrom(%d) lists %d entries, want the %d diagonals", first, len(entries), n+1)
	}
	for pass := 0; pass < 4; pass++ {
		for i := 0; i <= n; i++ {
			v[first+i] = 1e-3 + rng.Float64()*math.Pow(10, float64(rng.Intn(10)-5))
		}
		if !plan.Refill(a, v, entries) {
			t.Fatalf("pass %d: Refill reported a cancellation that cannot occur", pass)
		}
		// v aliases c's values, so the reference merges the new values.
		sameCSR(t, "refill", a, referenceToCSR(c))
		sameCSR(t, "fill", plan.Fill(v), a)
	}

	v[first+n] = -2.5
	if plan.Refill(a, v, entries) {
		t.Fatal("Refill stored a sum that cancels to zero")
	}
	got := plan.Fill(v)
	if got.NNZ() != plan.NNZ()-1 {
		t.Errorf("Fill after the cancellation keeps %d entries, want %d", got.NNZ(), plan.NNZ()-1)
	}
	sameCSR(t, "cancelled fill", got, referenceToCSR(c))
}

// BenchmarkToCSR times the merge of a 7-point finite-volume operator on
// a 60×60×2 grid, assembled face by face as the thermal solver does.
func BenchmarkToCSR(b *testing.B) {
	const nx, ny, nz = 60, 60, 2
	idx := func(i, j, k int) int { return (k*ny+j)*nx + i }
	c := NewCOO(nx*ny*nz, nx*ny*nz)
	pair := func(p, q int, g float64) {
		c.Add(p, p, g)
		c.Add(q, q, g)
		c.Add(p, q, -g)
		c.Add(q, p, -g)
	}
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				if i+1 < nx {
					pair(idx(i, j, k), idx(i+1, j, k), 1.1)
				}
				if j+1 < ny {
					pair(idx(i, j, k), idx(i, j+1, k), 0.9)
				}
				if k+1 < nz {
					pair(idx(i, j, k), idx(i, j, k+1), 3.7)
				}
			}
		}
	}
	for i := 0; i < nx*ny*nz; i++ {
		c.Add(i, i, 0.25)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.ToCSR()
	}
}
