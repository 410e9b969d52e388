package thermal

import (
	"math"
	"testing"

	"aeropack/internal/linalg"
	"aeropack/internal/materials"
	"aeropack/internal/mesh"
)

// sameSystem fails unless the assembled systems are identical array for
// array, bit for bit.
func sameSystem(t *testing.T, label string, a *linalg.CSR, b []float64, wantA *linalg.CSR, wantB []float64) {
	t.Helper()
	if len(a.RowPtr) != len(wantA.RowPtr) || a.NNZ() != wantA.NNZ() || len(b) != len(wantB) {
		t.Fatalf("%s: shape differs: %d rows %d nnz %d rhs, want %d, %d, %d",
			label, len(a.RowPtr)-1, a.NNZ(), len(b), len(wantA.RowPtr)-1, wantA.NNZ(), len(wantB))
	}
	for i := range wantA.RowPtr {
		if a.RowPtr[i] != wantA.RowPtr[i] {
			t.Fatalf("%s: RowPtr[%d] = %d, want %d", label, i, a.RowPtr[i], wantA.RowPtr[i])
		}
	}
	for k := range wantA.Val {
		if a.ColIdx[k] != wantA.ColIdx[k] || math.Float64bits(a.Val[k]) != math.Float64bits(wantA.Val[k]) {
			t.Fatalf("%s: entry %d = (%d, %v), want (%d, %v)", label, k, a.ColIdx[k], a.Val[k], wantA.ColIdx[k], wantA.Val[k])
		}
	}
	for i := range wantB {
		if math.Float64bits(b[i]) != math.Float64bits(wantB[i]) {
			t.Fatalf("%s: b[%d] = %v, want %v", label, i, b[i], wantB[i])
		}
	}
}

// patchedTestModel is an orthotropic three-layer board with every
// boundary kind: a radiating top, a convective bottom, a fixed-T edge, a
// radiating patch on the other edge, a fixed-T patch overriding part of
// the top, and two volume sources.
func patchedTestModel(t *testing.T) *Model {
	t.Helper()
	g, err := mesh.Uniform(14, 9, 3, 0.14, 0.09, 0.0024)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(g, []materials.Material{materials.PCB(10, 2, 0.6, 2.4e-3)})
	if err != nil {
		t.Fatal(err)
	}
	m.SetFaceBC(mesh.ZMax, BC{Kind: ConvectionRadiation, T: 330, H: 4})
	m.SetFaceBC(mesh.ZMin, BC{Kind: Convection, T: 320, H: 12})
	m.SetFaceBC(mesh.YMin, BC{Kind: FixedT, T: 315})
	if m.AddPatchBC(mesh.YMax, 0.02, 0.1, 0.08, 0.09, 0, 0.0024, BC{Kind: ConvectionRadiation, T: 300, H: 2, Emiss: 0.9}) == 0 {
		t.Fatal("radiating patch missed the mesh")
	}
	if m.AddPatchBC(mesh.ZMax, 0.1, 0.14, 0.0, 0.03, 0, 0.0024, BC{Kind: FixedT, T: 325}) == 0 {
		t.Fatal("fixed-T patch missed the mesh")
	}
	if m.AddVolumeSource(0.02, 0.06, 0.02, 0.05, 0, 0.0024, 3) == 0 || m.AddVolumeSource(0.08, 0.12, 0.04, 0.08, 0.0008, 0.0024, 1.5) == 0 {
		t.Fatal("source missed the mesh")
	}
	return m
}

// TestAssemblyPlanBitwise drives real Picard passes through one assembly
// and checks that every refilled system is bitwise the one a fresh
// assemble gives at the same surface temperature, at one and three
// workers, and that passes after the first refill rather than rebuild.
func TestAssemblyPlanBitwise(t *testing.T) {
	for _, tc := range []struct {
		name  string
		model func(*testing.T) *Model
	}{
		{"mixed-faces", parallelTestModel},
		{"patches", patchedTestModel},
	} {
		for _, w := range []int{1, 3} {
			m := tc.model(t)
			n := m.Grid.NumCells()
			o := SolveOptions{}
			o.defaults(n)
			setup := linalg.NewSolverSetup()
			asm := &assembly{m: m, workers: w}
			Tsurf := make([]float64, n)
			for i := range Tsurf {
				Tsurf[i] = m.guessInitialT()
			}
			var first *linalg.CSR
			var prev []float64
			for pass := 0; pass < 6; pass++ {
				a, b := asm.next(Tsurf)
				wantA, wantB := m.assemble(Tsurf, w)
				sameSystem(t, tc.name, a, b, wantA, wantB)
				if pass == 0 {
					first = a
				} else if a != first {
					t.Fatalf("%s workers=%d pass %d rebuilt the system instead of refilling it", tc.name, w, pass)
				}
				x, _, err := m.linSolve(a, b, prev, &o, setup, nil)
				if err != nil {
					t.Fatal(err)
				}
				for i := range Tsurf {
					Tsurf[i] = 0.5*Tsurf[i] + 0.5*x[i]
				}
				prev = x
			}
		}
	}
}

// TestAssemblyRebuildTriggers forces the passes that cannot refill: a
// boundary term that vanishes (its film coefficient falls to zero, or
// its conductance underflows to a zero COO.Add drops) and a diagonal
// that cancels to exactly zero.  Each must rebuild and still match a
// fresh assemble; the pass after a rebuild refills again.
func TestAssemblyRebuildTriggers(t *testing.T) {
	uniform := func(n int, v float64) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = v
		}
		return s
	}

	// Zero terms: a radiating face to a 0 K sink with no convection, so
	// h = εσ·Ts³.  Ts = 0 gives h = 0 (the term is skipped); Ts = 1e-105
	// gives a subnormal h whose film resistance overflows, so gTot = 0.
	g, err := mesh.Uniform(3, 3, 2, 0.03, 0.03, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	zm, err := NewModel(g, []materials.Material{materials.Al6061})
	if err != nil {
		t.Fatal(err)
	}
	zm.SetFaceBC(mesh.ZMax, BC{Kind: ConvectionRadiation, T: 0, H: 0, Emiss: 0.8})
	zm.SetFaceBC(mesh.ZMin, BC{Kind: Convection, T: 300, H: 10})
	zm.AddVolumeSource(0, 0.03, 0, 0.03, 0, 0.002, 1)
	hot := uniform(zm.Grid.NumCells(), 300)
	zeroH := uniform(zm.Grid.NumCells(), 300)
	zeroH[zm.Grid.Index(1, 1, 1)] = 0
	// The same number of terms as zeroH, but a different cell drops out.
	zeroH2 := uniform(zm.Grid.NumCells(), 300)
	zeroH2[zm.Grid.Index(0, 2, 1)] = 0
	zeroG := uniform(zm.Grid.NumCells(), 300)
	zeroG[zm.Grid.Index(2, 0, 1)] = 1e-105

	// Cancellation: one cubic cell of negative conductivity, so its
	// conduction resistance is -1 K/W.  The fixed-T face adds gTot = -1;
	// the radiating face to a 0 K sink at Ts = 0 has h = 0.5, a 2 K/W
	// film and gTot = +1, and the diagonal sums to exactly zero.
	g1, err := mesh.Uniform(1, 1, 1, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := NewModel(g1, []materials.Material{{Name: "negative-k", K: -0.5, Emiss: 0.8}})
	if err != nil {
		t.Fatal(err)
	}
	cm.SetFaceBC(mesh.XMin, BC{Kind: FixedT, T: 300})
	cm.SetFaceBC(mesh.XMax, BC{Kind: ConvectionRadiation, T: 0, H: 0.5})

	for _, tc := range []struct {
		name   string
		m      *Model
		passes [][]float64
		// rebuild[p] says pass p must rebuild rather than refill.
		rebuild []bool
	}{
		{"zero-h", zm, [][]float64{hot, zeroH, zeroH2, zeroH2, hot}, []bool{true, true, true, false, true}},
		{"zero-gTot", zm, [][]float64{hot, zeroG, hot, hot}, []bool{true, true, true, false}},
		{"cancellation", cm, [][]float64{{300}, {0}, {300}, {310}}, []bool{true, true, true, false}},
	} {
		for _, w := range []int{1, 3} {
			asm := &assembly{m: tc.m, workers: w}
			var last *linalg.CSR
			for p, Tsurf := range tc.passes {
				a, b := asm.next(Tsurf)
				wantA, wantB := tc.m.assemble(Tsurf, w)
				sameSystem(t, tc.name, a, b, wantA, wantB)
				if rebuilt := a != last; rebuilt != tc.rebuild[p] {
					t.Errorf("%s workers=%d pass %d: rebuilt = %v, want %v", tc.name, w, p, rebuilt, tc.rebuild[p])
				}
				last = a
			}
		}
	}
	// The cancellation really happened: the fresh system at Ts = 0 stores
	// no entry at all.
	if a, _ := cm.assemble([]float64{0}, 1); a.NNZ() != 0 {
		t.Errorf("cancellation case stores %d entries, want 0", a.NNZ())
	}
}

// TestAssemblyPerPassAllocationsPinned pins the marginal allocations of
// one Picard pass after the first.  A refill allocates nothing for the
// system; what remains (≈10) is the linear solve's own work vectors and
// preconditioner.  A pass that silently rebuilds regrows the triplet
// lists and the merge plan: ≈75 allocations a pass on this model.
func TestAssemblyPerPassAllocationsPinned(t *testing.T) {
	m := parallelTestModel(t)
	run := func(passes int) float64 {
		return testing.AllocsPerRun(3, func() {
			// RadTol far below any reachable ΔT: every pass runs.
			_, err := m.SolveSteady(&SolveOptions{MaxOuter: passes, RadTol: 1e-300, ReturnLast: true})
			if err == nil {
				t.Fatal("the radiation loop converged; the pass count is not pinned")
			}
		})
	}
	perPass := (run(12) - run(4)) / 8
	t.Logf("marginal allocations per Picard pass: %.2f", perPass)
	if perPass > 30 {
		t.Errorf("a Picard pass allocates %.2f, budget 30 — is the assembly being rebuilt every pass again?", perPass)
	}
}
