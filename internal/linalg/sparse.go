package linalg

import (
	"fmt"
	"math"
	"sort"

	"aeropack/internal/parallel"
)

// COO is a coordinate-format sparse matrix builder.  Duplicate entries are
// summed when converting to CSR, which is exactly the accumulation
// behaviour finite-volume and finite-element assembly need.
type COO struct {
	Rows, Cols int
	ri, ci     []int
	v          []float64
}

// NewCOO returns an empty builder for a Rows×Cols matrix.
func NewCOO(rows, cols int) *COO {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid COO dimensions %d×%d", rows, cols))
	}
	return &COO{Rows: rows, Cols: cols}
}

// Add accumulates v at (i,j).
func (c *COO) Add(i, j int, v float64) {
	if i < 0 || i >= c.Rows || j < 0 || j >= c.Cols {
		panic(fmt.Sprintf("linalg: COO index (%d,%d) out of range %d×%d", i, j, c.Rows, c.Cols))
	}
	if v == 0 {
		return
	}
	c.ri = append(c.ri, i)
	c.ci = append(c.ci, j)
	c.v = append(c.v, v)
}

// NNZ returns the number of stored (pre-merge) entries.
func (c *COO) NNZ() int { return len(c.v) }

// AppendAll appends every stored triplet of o to c in o's insertion
// order — the merge step for sharded parallel assembly, where each
// worker accumulates into a private builder and the shards are
// concatenated in shard order to reproduce the serial insertion
// sequence exactly.  Dimensions must match.
func (c *COO) AppendAll(o *COO) {
	if o.Rows != c.Rows || o.Cols != c.Cols {
		panic(fmt.Sprintf("linalg: COO AppendAll dimension mismatch %d×%d vs %d×%d",
			c.Rows, c.Cols, o.Rows, o.Cols))
	}
	c.ri = append(c.ri, o.ri...)
	c.ci = append(c.ci, o.ci...)
	c.v = append(c.v, o.v...)
}

// Values returns the stored triplet values in insertion order, aliasing
// the builder's storage.  Together with Plan it is everything a caller
// needs to merge the same triplet sequence again without the builder:
// Plan().Fill(Values()) is ToCSR.
func (c *COO) Values() []float64 { return c.v }

// ToCSR converts the builder to compressed-sparse-row form, merging
// duplicates by summation and dropping exact zeros produced by
// cancellation, so assembly can never leave explicit zeros in the
// sparsity pattern.  It is Plan followed by Fill: the one merge path.
func (c *COO) ToCSR() *CSR { return c.Plan().Fill(c.v) }

// MergePlan is the value-independent half of COO.ToCSR: the order in
// which a triplet sequence is sorted and merged, and the merged
// structure it yields.  The sort comparator reads only (row, col), so the
// plan depends only on the (row, col) sequence, and Fill with any values
// for that same sequence sums each entry in exactly the order a fresh
// ToCSR would — the merged values are bitwise identical.  A caller that
// reassembles the same sequence with new values can therefore keep the
// plan and skip the sort; a sequence that differs in any triplet (a
// zero value COO.Add would drop included) needs a new plan.
//
// The plan holds int32 indices only (the permutation and per-entry
// offsets) plus the merged RowPtr/ColIdx, which CSRs filled from it
// share and must not modify.
type MergePlan struct {
	rows, cols int
	perm       []int32 // sorted position → triplet index
	start      []int32 // merged entry s sums sorted positions [start[s], start[s+1])
	rowPtr     []int   // merged structure before cancellation compaction
	colIdx     []int
}

// Plan sorts the stored triplets by (row, col) and records the merge.
func (c *COO) Plan() *MergePlan {
	n := len(c.v)
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("linalg: COO holds %d triplets, more than a merge plan indexes", n))
	}
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.Slice(perm, func(a, b int) bool {
		ia, ib := perm[a], perm[b]
		if c.ri[ia] != c.ri[ib] {
			return c.ri[ia] < c.ri[ib]
		}
		return c.ci[ia] < c.ci[ib]
	})
	nnz := 0
	lastR, lastC := -1, -1
	for _, idx := range perm {
		if r, col := c.ri[idx], c.ci[idx]; r != lastR || col != lastC {
			nnz++
			lastR, lastC = r, col
		}
	}
	p := &MergePlan{
		rows: c.Rows, cols: c.Cols, perm: perm,
		start:  make([]int32, 0, nnz+1),
		rowPtr: make([]int, c.Rows+1),
		colIdx: make([]int, 0, nnz),
	}
	lastR, lastC = -1, -1
	for pos, idx := range perm {
		r, col := c.ri[idx], c.ci[idx]
		if r == lastR && col == lastC {
			continue
		}
		p.start = append(p.start, int32(pos))
		p.colIdx = append(p.colIdx, col)
		p.rowPtr[r+1]++
		lastR, lastC = r, col
	}
	p.start = append(p.start, int32(n))
	for i := 0; i < c.Rows; i++ {
		p.rowPtr[i+1] += p.rowPtr[i]
	}
	return p
}

// NNZ returns the number of merged entries before cancellation
// compaction; a CSR filled from the plan with fewer entries had a sum
// cancel to exactly zero.
func (p *MergePlan) NNZ() int { return len(p.colIdx) }

// sum merges entry s: the first triplet, then each duplicate added in
// sorted order — the accumulation order of every merge.
func (p *MergePlan) sum(v []float64, s int) float64 {
	lo, hi := p.start[s], p.start[s+1]
	x := v[p.perm[lo]]
	for q := lo + 1; q < hi; q++ {
		x += v[p.perm[q]]
	}
	return x
}

// Fill merges the triplet values v (in insertion order, one per planned
// triplet) into a new CSR.  Sums that cancel to exactly zero are dropped,
// as in ToCSR; when none does, the CSR shares the plan's RowPtr and
// ColIdx.
func (p *MergePlan) Fill(v []float64) *CSR {
	if len(v) != len(p.perm) {
		panic(fmt.Sprintf("linalg: merge plan for %d triplets filled with %d values", len(p.perm), len(v)))
	}
	nnz := len(p.colIdx)
	val := make([]float64, nnz)
	cancelled := false
	for s := range val {
		val[s] = p.sum(v, s)
		// Add refuses literal zeros, so a zero here is an exact
		// cancellation, not a tolerance question.
		cancelled = cancelled || val[s] == 0 // exact cancellation check; zero compares are floatcmp-exempt
	}
	csr := &CSR{Rows: p.rows, Cols: p.cols, RowPtr: p.rowPtr, ColIdx: p.colIdx, Val: val}
	if !cancelled {
		return csr
	}
	// Compaction: the structure now depends on the values, so the CSR
	// gets its own arrays.
	rowPtr := make([]int, p.rows+1)
	colIdx := make([]int, 0, nnz)
	keep := 0
	for i := 0; i < p.rows; i++ {
		for s := p.rowPtr[i]; s < p.rowPtr[i+1]; s++ {
			if val[s] == 0 { // exact cancellation check; zero compares are floatcmp-exempt
				continue
			}
			val[keep] = val[s]
			colIdx = append(colIdx, p.colIdx[s])
			keep++
		}
		rowPtr[i+1] = keep
	}
	csr.RowPtr, csr.ColIdx, csr.Val = rowPtr, colIdx, val[:keep]
	return csr
}

// EntriesFrom lists, in increasing order, the merged entries that sum
// at least one triplet inserted at index first or later: the entries a
// caller must Refill when only the tail of the triplet sequence changes
// value.
func (p *MergePlan) EntriesFrom(first int) []int32 {
	var out []int32
	for s := 0; s < len(p.colIdx); s++ {
		for q := p.start[s]; q < p.start[s+1]; q++ {
			if int(p.perm[q]) >= first {
				out = append(out, int32(s))
				break
			}
		}
	}
	return out
}

// Refill re-merges the listed entries of a, a CSR filled from this plan
// without cancellation, from the triplet values v, in place.  Entries
// not listed keep their values, so the caller lists every entry whose
// triplets changed (EntriesFrom).  It reports false, leaving a partly
// updated, when a listed sum cancels to exactly zero: the structure then
// changes and only a fresh Fill gives ToCSR's answer.
func (p *MergePlan) Refill(a *CSR, v []float64, entries []int32) bool {
	if len(a.Val) != len(p.colIdx) || len(v) != len(p.perm) {
		panic("linalg: Refill of a CSR or value list that does not match the merge plan")
	}
	for _, s := range entries {
		x := p.sum(v, int(s))
		if x == 0 { // exact cancellation check; zero compares are floatcmp-exempt
			return false
		}
		a.Val[s] = x
	}
	return true
}

// CSR is a compressed-sparse-row matrix.  Column indices are strictly
// increasing within each row (ToCSR guarantees this; hand-built
// matrices must preserve it).
type CSR struct {
	Rows, Cols int
	RowPtr     []int
	ColIdx     []int
	Val        []float64

	// workers is the MulVec parallelism knob set via SetWorkers; 0 or 1
	// keeps the serial path.
	workers int
}

// MulVecParallelNNZ is the stored-entry count above which MulVec uses
// the row-parallel path once SetWorkers has enabled it; below it the
// goroutine fan-out costs more than the product.
const MulVecParallelNNZ = 1 << 14

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// SetWorkers sets the worker budget MulVec may spend on row-parallel
// products when the matrix holds at least MulVecParallelNNZ entries;
// n <= 1 restores the serial path and n <= 0 disables parallelism
// outright.  Rows are partitioned into contiguous blocks and each row's
// accumulation order is unchanged, so the parallel product is
// bitwise-identical to the serial one.  Set the knob before sharing the
// matrix between goroutines — it is not synchronised.
func (m *CSR) SetWorkers(n int) { m.workers = n }

// MulVec computes y = M·x, reusing y if it has the right length.
//
// Aliasing contract: y may be the identical slice as x (the product is
// then formed in a scratch buffer and copied back, so m.MulVec(v, v)
// yields the correct product); partially overlapping slices that share
// memory without sharing the first element are not detected and produce
// garbage.
func (m *CSR) MulVec(x, y []float64) []float64 {
	if len(x) != m.Cols {
		panic("linalg: dimension mismatch in CSR MulVec")
	}
	if len(y) != m.Rows {
		y = make([]float64, m.Rows)
	} else if len(y) > 0 && len(x) > 0 && &y[0] == &x[0] {
		// y aliases x: rows would read already-overwritten values, so
		// compute into a fresh buffer first.
		tmp := make([]float64, m.Rows)
		m.mulVecInto(x, tmp)
		copy(y, tmp)
		return y
	}
	m.mulVecInto(x, y)
	return y
}

// mulVecInto computes y = M·x into a non-aliasing y of length Rows.
//
//lint:hot
func (m *CSR) mulVecInto(x, y []float64) {
	if w := m.workers; w > 1 && m.NNZ() >= MulVecParallelNNZ {
		parallel.Blocks(m.Rows, w, func(_, lo, hi int) {
			m.mulRows(x, y, lo, hi)
		})
		return
	}
	m.mulRows(x, y, 0, m.Rows)
}

// mulRows computes the row range [lo,hi) of y = M·x.
//
//lint:hot
func (m *CSR) mulRows(x, y []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		s := 0.0
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			s += m.Val[k] * x[m.ColIdx[k]]
		}
		y[i] = s
	}
}

// At returns element (i,j) with a per-row binary search; O(log nnz_row).
func (m *CSR) At(i, j int) float64 {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	k := sort.SearchInts(m.ColIdx[lo:hi], j) + lo
	if k < hi && m.ColIdx[k] == j {
		return m.Val[k]
	}
	return 0
}

// Diag extracts the main diagonal with a single ordered row walk:
// column indices are sorted within each row, so scanning each row until
// the column passes i costs O(nnz) overall — the per-element binary
// search it replaces made Jacobi/SSOR preconditioner setup O(n·log nnz).
func (m *CSR) Diag() []float64 {
	d := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if j := m.ColIdx[k]; j == i {
				d[i] = m.Val[k]
				break
			} else if j > i {
				break
			}
		}
	}
	return d
}

// IsSymmetric reports whether the matrix is structurally and numerically
// symmetric to tolerance tol.  It walks all rows once with a monotone
// cursor per row: as the outer row i advances, the mirror lookups into
// any row j arrive in increasing column order, so each cursor only ever
// moves forward and the whole check is O(nnz) instead of O(nnz·log nnz).
func (m *CSR) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	cur := make([]int, m.Rows)
	copy(cur, m.RowPtr[:m.Rows])
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := m.ColIdx[k]
			for cur[j] < m.RowPtr[j+1] && m.ColIdx[cur[j]] < i {
				cur[j]++
			}
			mirror := 0.0
			if cur[j] < m.RowPtr[j+1] && m.ColIdx[cur[j]] == i {
				mirror = m.Val[cur[j]]
			}
			if d := m.Val[k] - mirror; d > tol || d < -tol {
				return false
			}
		}
	}
	return true
}

// ToDense expands the matrix; for tests and small eigenproblems only.
func (m *CSR) ToDense() *Dense {
	d := NewDense(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			d.Set(i, m.ColIdx[k], m.Val[k])
		}
	}
	return d
}
