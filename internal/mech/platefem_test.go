package mech

import (
	"math"
	"testing"

	"aeropack/internal/linalg"
	"aeropack/internal/materials"
	"aeropack/internal/units"
)

func TestPlateFEMMatchesAnalyticSSSS(t *testing.T) {
	fr4 := materials.FR4
	ref := &Plate{A: 0.16, B: 0.10, Thickness: 1.6e-3, Material: fr4, Edges: SSSS}
	want, err := ref.FundamentalHz()
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlateFEM(0.16, 0.10, 1.6e-3, fr4, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.FundamentalHz()
	if err != nil {
		t.Fatal(err)
	}
	if !units.ApproxEqual(got, want, 0.02) {
		t.Errorf("FEM f1 = %v vs analytic %v", got, want)
	}
	// Second mode against the closed-form (2,1) mode.
	f21, err := ref.ModeHz(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := p.ModalFrequencies(2)
	if err != nil {
		t.Fatal(err)
	}
	if !units.ApproxEqual(fs[1], f21, 0.03) {
		t.Errorf("FEM f2 = %v vs analytic (2,1) %v", fs[1], f21)
	}
}

func TestPlateFEMConvergesFromBelow(t *testing.T) {
	// The ACM element is non-conforming: frequencies converge to the exact
	// value from below, monotonically with refinement.
	fr4 := materials.FR4
	ref := &Plate{A: 0.16, B: 0.10, Thickness: 1.6e-3, Material: fr4, Edges: SSSS}
	exact, _ := ref.FundamentalHz()
	prev := 0.0
	for _, n := range []int{4, 6, 8} {
		p, _ := NewPlateFEM(0.16, 0.10, 1.6e-3, fr4, n, n)
		f, err := p.FundamentalHz()
		if err != nil {
			t.Fatal(err)
		}
		if f <= prev {
			t.Fatalf("refinement must raise the frequency: %v after %v", f, prev)
		}
		if f >= exact {
			t.Fatalf("ACM must converge from below: %v vs exact %v", f, exact)
		}
		prev = f
	}
}

func TestPlateFEMClampedStiffer(t *testing.T) {
	fr4 := materials.FR4
	ss, _ := NewPlateFEM(0.12, 0.10, 1.6e-3, fr4, 6, 6)
	fss, err := ss.FundamentalHz()
	if err != nil {
		t.Fatal(err)
	}
	cc, _ := NewPlateFEM(0.12, 0.10, 1.6e-3, fr4, 6, 6)
	cc.EdgesClamped = [4]bool{true, true, true, true}
	fcc, err := cc.FundamentalHz()
	if err != nil {
		t.Fatal(err)
	}
	if fcc <= fss {
		t.Errorf("clamped plate %v must beat simply supported %v", fcc, fss)
	}
	// Clamped/SSSS frequency ratio for a rectangular plate ≈ 1.8–2.1.
	ratio := fcc / fss
	if ratio < 1.6 || ratio > 2.3 {
		t.Errorf("CCCC/SSSS ratio = %v, want ≈1.9", ratio)
	}
}

func TestPlateFEMWedgeLockEdges(t *testing.T) {
	// Two opposite edges clamped (wedge locks), the others free: the
	// plate behaves like a clamped-clamped beam strip — finite frequency,
	// below the all-edges-supported case of the same plate.
	fr4 := materials.FR4
	wl, _ := NewPlateFEM(0.16, 0.10, 1.6e-3, fr4, 6, 6)
	wl.EdgesSupported = [4]bool{false, false, false, false}
	wl.EdgesClamped = [4]bool{true, true, false, false}
	f, err := wl.FundamentalHz()
	if err != nil {
		t.Fatal(err)
	}
	if f <= 0 {
		t.Fatal("wedge-locked plate must have a flexible mode")
	}
	all, _ := NewPlateFEM(0.16, 0.10, 1.6e-3, fr4, 6, 6)
	fAll, _ := all.FundamentalHz()
	// Two free edges soften the plate relative to four supported edges…
	// unless clamping stiffens more than the free edges soften; just check
	// both are plausible board frequencies.
	if f < 50 || f > 3000 || fAll < 50 || fAll > 3000 {
		t.Errorf("frequencies implausible: wedge %v, SSSS %v", f, fAll)
	}
}

func TestPlateFEMPointMassLowersFrequency(t *testing.T) {
	fr4 := materials.FR4
	bare, _ := NewPlateFEM(0.16, 0.10, 1.6e-3, fr4, 6, 6)
	f0, err := bare.FundamentalHz()
	if err != nil {
		t.Fatal(err)
	}
	// A 100 g transformer at the centre.
	loaded, _ := NewPlateFEM(0.16, 0.10, 1.6e-3, fr4, 6, 6)
	loaded.PointMasses = []PointMass{{X: 0.08, Y: 0.05, Kg: 0.1}}
	f1, err := loaded.FundamentalHz()
	if err != nil {
		t.Fatal(err)
	}
	if f1 >= f0 {
		t.Errorf("centre mass must lower the mode: %v vs %v", f1, f0)
	}
	// The same mass near a supported corner barely matters.
	corner, _ := NewPlateFEM(0.16, 0.10, 1.6e-3, fr4, 6, 6)
	corner.PointMasses = []PointMass{{X: 0.01, Y: 0.01, Kg: 0.1}}
	f2, err := corner.FundamentalHz()
	if err != nil {
		t.Fatal(err)
	}
	if f2 <= f1 {
		t.Errorf("corner mass %v should hurt less than centre mass %v", f2, f1)
	}
	// Smeared mass load matches Plate's behaviour qualitatively.
	smeared, _ := NewPlateFEM(0.16, 0.10, 1.6e-3, fr4, 6, 6)
	smeared.MassLoadKgM2 = 3
	f3, _ := smeared.FundamentalHz()
	if f3 >= f0 {
		t.Error("smeared load must lower the mode")
	}
}

func TestPlateFEMValidation(t *testing.T) {
	fr4 := materials.FR4
	if _, err := NewPlateFEM(0, 0.1, 1e-3, fr4, 4, 4); err == nil {
		t.Error("zero dimension should error")
	}
	if _, err := NewPlateFEM(0.1, 0.1, 1e-3, fr4, 1, 4); err == nil {
		t.Error("too-coarse grid should error")
	}
	if _, err := NewPlateFEM(0.1, 0.1, 1e-3, materials.Material{}, 4, 4); err == nil {
		t.Error("empty material should error")
	}
	p, _ := NewPlateFEM(0.1, 0.1, 1e-3, fr4, 4, 4)
	p.PointMasses = []PointMass{{X: 5, Y: 5, Kg: 0.1}}
	if _, err := p.FundamentalHz(); err == nil {
		t.Error("off-plate mass should error")
	}
	p.PointMasses = []PointMass{{X: 0.05, Y: 0.05, Kg: -1}}
	if _, err := p.FundamentalHz(); err == nil {
		t.Error("negative mass should error")
	}
	free, _ := NewPlateFEM(0.1, 0.1, 1e-3, fr4, 4, 4)
	free.EdgesSupported = [4]bool{}
	if _, err := free.FundamentalHz(); err == nil {
		t.Error("free-free plate should error")
	}
}

func TestPlateFEMBaseModes(t *testing.T) {
	fr4 := materials.FR4
	p, _ := NewPlateFEM(0.16, 0.10, 1.6e-3, fr4, 6, 6)
	modes, err := p.BaseModes(4)
	if err != nil {
		t.Fatal(err)
	}
	// Frequencies agree with ModalFrequencies.
	freqs, _ := p.ModalFrequencies(4)
	for i := range modes {
		if !units.ApproxEqual(modes[i].FreqHz, freqs[i], 1e-9) {
			t.Errorf("mode %d frequency mismatch", i)
		}
	}
	// Mode 1 of an SSSS plate carries the lion's share of the mass:
	// (8/π²)² ≈ 0.657 of the total.
	total := (fr4.Rho*1.6e-3 + 0) * 0.16 * 0.10
	frac := modes[0].EffectiveModalMass() / total
	if frac < 0.5 || frac > 0.8 {
		t.Errorf("mode-1 effective mass fraction = %v, want ≈0.66", frac)
	}
	// Supported edges have zero shape; the interior peaks at the centre.
	shape := modes[0].Shape
	nnx := 7
	centre := math.Abs(shape[3*nnx+3])
	if centre == 0 {
		t.Fatal("centre shape must be nonzero")
	}
	for i := 0; i < nnx; i++ {
		if shape[i] != 0 || shape[6*nnx+i] != 0 {
			t.Error("supported edges must have zero deflection")
		}
	}
	for _, v := range shape {
		if math.Abs(v) > centre+1e-12 {
			t.Error("mode 1 must peak at the centre")
		}
	}
}

func TestPlateFEMRandomResponseIntegration(t *testing.T) {
	// Full-board random response: the plate's modal data feeds the
	// modal-superposition machinery; the centre response lands near the
	// classical Γφ·SDOF single-mode estimate.
	fr4 := materials.FR4
	p, _ := NewPlateFEM(0.16, 0.10, 2e-3, fr4, 6, 6)
	p.MassLoadKgM2 = 2
	modes, err := p.BaseModes(5)
	if err != nil {
		t.Fatal(err)
	}
	if modes[0].FreqHz < 100 || modes[0].FreqHz > 800 {
		t.Fatalf("loaded board f1 = %v Hz implausible", modes[0].FreqHz)
	}
	// Amplification of the centre: Γ₁·φ₁(centre) ≈ (4/π)² ≈ 1.62 for a
	// uniform SSSS plate.
	nnx := 7
	amp := math.Abs(modes[0].Participation * modes[0].Shape[3*nnx+3])
	if amp < 1.3 || amp > 1.95 {
		t.Errorf("plate mode-1 amplification = %v, want ≈1.62", amp)
	}
}

func TestPlateFEMSquareDegenerateModes(t *testing.T) {
	// A square simply supported plate has the (2,1) and (1,2) modes at
	// one frequency.  The eigensolver must return the tie as a tie and
	// still hand back two M-orthonormal shapes that span it.  The element
	// matrices come from finite-difference curvatures (round-off ≈ ε/h²),
	// which already split the pair by ≈6e-9 relative in the model itself.
	p, err := NewPlateFEM(0.1, 0.1, 1.6e-3, materials.FR4, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := p.ModalFrequencies(4)
	if err != nil {
		t.Fatal(err)
	}
	if rel := (fs[2] - fs[1]) / fs[1]; rel > 1e-7 {
		t.Errorf("modes 2/3 = %v, %v Hz should be degenerate (rel gap %.2g)", fs[1], fs[2], rel)
	}
	if fs[3] < 1.5*fs[2] {
		t.Errorf("mode 4 %v Hz should sit well above the degenerate pair %v Hz", fs[3], fs[2])
	}
	kr, mr, _, err := p.assemble()
	if err != nil {
		t.Fatal(err)
	}
	vals, vecs, err := linalg.EigenGeneral(kr, mr)
	if err != nil {
		t.Fatal(err)
	}
	n := kr.Rows
	col := func(j int) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = vecs.At(i, j)
		}
		return x
	}
	for i := 0; i < 4; i++ {
		xi := col(i)
		kx, mx := kr.MulVec(xi), mr.MulVec(xi)
		res := 0.0
		for r := range kx {
			res = math.Max(res, math.Abs(kx[r]-vals[i]*mx[r]))
		}
		if res > 1e-9*vals[i]*linalg.NormInf(mx) {
			t.Errorf("mode %d residual %g", i+1, res)
		}
		for j := 0; j <= i; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if got := linalg.Dot(col(j), mx); math.Abs(got-want) > 1e-10 {
				t.Errorf("x%dᵀ·M·x%d = %v, want %v", j+1, i+1, got, want)
			}
		}
	}
}
