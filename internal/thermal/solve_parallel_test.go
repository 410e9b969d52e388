package thermal

import (
	"testing"

	"aeropack/internal/linalg"
	"aeropack/internal/materials"
	"aeropack/internal/mesh"
)

// parallelTestModel builds a multi-slab heated plate with mixed BCs,
// including radiation so the Picard outer loop runs more than once.
func parallelTestModel(t *testing.T) *Model {
	t.Helper()
	g, err := mesh.Uniform(12, 10, 6, 0.12, 0.1, 0.012)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(g, []materials.Material{materials.Al6061})
	if err != nil {
		t.Fatal(err)
	}
	m.SetFaceBC(mesh.ZMin, BC{Kind: Convection, T: 300, H: 25})
	m.SetFaceBC(mesh.ZMax, BC{Kind: ConvectionRadiation, T: 290, H: 8, Emiss: 0.8})
	m.SetFaceBC(mesh.XMin, BC{Kind: FixedT, T: 310})
	if m.AddVolumeSource(0.03, 0.08, 0.02, 0.07, 0, 0.012, 18) == 0 {
		t.Fatal("source missed mesh")
	}
	return m
}

func TestSolveSteadyParallelMatchesSerial(t *testing.T) {
	m := parallelTestModel(t)
	serial, err := m.SolveSteady(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, 2, 4} {
		par, err := m.SolveSteady(&SolveOptions{Parallel: true, Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if par.OuterIterations != serial.OuterIterations {
			t.Errorf("workers=%d: outer iterations %d vs serial %d",
				w, par.OuterIterations, serial.OuterIterations)
		}
		for i := range serial.T {
			if par.T[i] != serial.T[i] {
				t.Fatalf("workers=%d: cell %d: %v vs serial %v (must be bitwise identical)",
					w, i, par.T[i], serial.T[i])
			}
		}
	}
}

func TestSolveTransientParallelMatchesSerial(t *testing.T) {
	m := parallelTestModel(t)
	opts := TransientOptions{Dt: 2, Steps: 5}
	serial, err := m.SolveTransient(300, &opts)
	if err != nil {
		t.Fatal(err)
	}
	ref := cooTransient(t, m, 300, opts)
	for i := range serial.T {
		if serial.T[i] != ref[i] {
			t.Fatalf("cell %d: %v vs the COO formulation %v (must be bitwise identical)", i, serial.T[i], ref[i])
		}
	}
	for _, w := range []int{2, 3, 4} {
		popts := TransientOptions{Dt: 2, Steps: 5}
		popts.Parallel = true
		popts.Workers = w
		par, err := m.SolveTransient(300, &popts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial.T {
			if par.T[i] != serial.T[i] {
				t.Fatalf("workers=%d: cell %d: %v vs serial %v (must be bitwise identical)", w, i, par.T[i], serial.T[i])
			}
		}
	}
}

// cooTransient is the backward-Euler stepper in its original form: a
// fresh assembly every step, and the step operator formed by re-adding
// every assembled entry and the C/dt diagonal into a new COO and merging
// it again.  SolveTransient must reproduce it bit for bit.
func cooTransient(t *testing.T, m *Model, T0 float64, opts TransientOptions) []float64 {
	t.Helper()
	g := m.Grid
	n := g.NumCells()
	o := opts.SolveOptions
	o.defaults(n)
	T := make([]float64, n)
	capacity := make([]float64, n)
	for k := 0; k < g.Nz; k++ {
		for j := 0; j < g.Ny; j++ {
			for i := 0; i < g.Nx; i++ {
				T[g.Index(i, j, k)] = T0
				capacity[g.Index(i, j, k)] = m.matAt(i, j, k).VolumetricHeatCapacity() * g.CellVolume(i, j, k)
			}
		}
	}
	setup := linalg.NewSolverSetup()
	rhs := make([]float64, n)
	for step := 0; step < opts.Steps; step++ {
		a, b := m.assemble(T, 1)
		coo := linalg.NewCOO(n, n)
		for i := 0; i < n; i++ {
			for kk := a.RowPtr[i]; kk < a.RowPtr[i+1]; kk++ {
				coo.Add(i, a.ColIdx[kk], a.Val[kk])
			}
			coo.Add(i, i, capacity[i]/opts.Dt)
			rhs[i] = b[i] + capacity[i]/opts.Dt*T[i]
		}
		Tn, _, err := m.linSolve(coo.ToCSR(), rhs, T, &o, setup, nil)
		if err != nil {
			t.Fatal(err)
		}
		copy(T, Tn)
	}
	return T
}

// TestWithCapacityMatchesCOO checks the step operator against the COO
// merge it replaces, including the rows that must take the COO path: a
// row with no stored diagonal and a diagonal that cancels exactly.
func TestWithCapacityMatchesCOO(t *testing.T) {
	build := func(entries [][3]float64) *linalg.CSR {
		coo := linalg.NewCOO(3, 3)
		for _, e := range entries {
			coo.Add(int(e[0]), int(e[1]), e[2])
		}
		return coo.ToCSR()
	}
	full := build([][3]float64{{0, 0, 2.5}, {0, 1, -1.1}, {1, 0, -1.1}, {1, 1, 3.3}, {1, 2, -0.7}, {2, 1, -0.7}, {2, 2, 0.9}})
	noDiag := build([][3]float64{{0, 0, 2.5}, {0, 1, -1.1}, {1, 0, -1.1}, {2, 2, 0.9}})
	for _, tc := range []struct {
		name    string
		a       *linalg.CSR
		c       []float64
		general bool // the structure changes: withCapacity must take the COO path
	}{
		{"diagonal", full, []float64{0.1, 1e-17, 7.25}, false},
		{"zero-capacity", full, []float64{0, 0.4, 0}, false},
		{"missing-diagonal", noDiag, []float64{0.1, 0.2, 0.3}, true},
		{"missing-diagonal-zero-capacity", noDiag, []float64{0.1, 0, 0.3}, false},
		{"cancellation", full, []float64{0.1, -3.3, 0.3}, true},
	} {
		got := withCapacity(tc.a, tc.c)
		sameSystem(t, tc.name, got, nil, withCapacityCOO(tc.a, tc.c), nil)
		if shared := &got.ColIdx[0] == &tc.a.ColIdx[0]; shared == tc.general {
			t.Errorf("%s: shares the assembled structure = %v, want %v", tc.name, shared, !tc.general)
		}
	}
}

// TestAssembleParallelIdentical pins the stronger property the solver
// relies on: the sharded assembly produces an operator whose CSR arrays
// are identical element-for-element, not merely a matrix with equal
// entries.
func TestAssembleParallelIdentical(t *testing.T) {
	m := parallelTestModel(t)
	n := m.Grid.NumCells()
	Tsurf := make([]float64, n)
	for i := range Tsurf {
		Tsurf[i] = 305
	}
	a1, b1 := m.assemble(Tsurf, 1)
	for _, w := range []int{2, 3, 5, 16} {
		a2, b2 := m.assemble(Tsurf, w)
		if a1.NNZ() != a2.NNZ() {
			t.Fatalf("workers=%d: nnz %d vs %d", w, a2.NNZ(), a1.NNZ())
		}
		for i := range a1.RowPtr {
			if a1.RowPtr[i] != a2.RowPtr[i] {
				t.Fatalf("workers=%d: RowPtr[%d] differs", w, i)
			}
		}
		for i := range a1.Val {
			if a1.Val[i] != a2.Val[i] || a1.ColIdx[i] != a2.ColIdx[i] {
				t.Fatalf("workers=%d: entry %d differs", w, i)
			}
		}
		for i := range b1 {
			if b1[i] != b2[i] {
				t.Fatalf("workers=%d: rhs[%d] differs", w, i)
			}
		}
	}
}
