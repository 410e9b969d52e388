package mech

import (
	"math"
	"testing"

	"aeropack/internal/materials"
)

// The golden frequencies below were printed (%#v) from the cyclic-Jacobi
// eigensolver linalg had before its Householder/QL kernel.  Any
// eigensolver must reproduce them within goldenRelTol: a drift means the
// modal answers changed, not just the algorithm.
const goldenRelTol = 1e-9

// goldenBoard is a 160×100×1.6 mm FR-4 board on an 8×8 ACM mesh carrying
// a transformer, a regulator and a connector as point masses.
func goldenBoard(sup, clamp [4]bool) *PlateFEM {
	p, err := NewPlateFEM(0.16, 0.10, 1.6e-3, materials.FR4, 8, 8)
	if err != nil {
		panic(err)
	}
	p.EdgesSupported, p.EdgesClamped = sup, clamp
	p.PointMasses = []PointMass{
		{X: 0.08, Y: 0.05, Kg: 0.1},
		{X: 0.03, Y: 0.07, Kg: 0.04},
		{X: 0.13, Y: 0.02, Kg: 0.025},
	}
	return p
}

// goldenBeam is a 300 mm aluminium strip on 30 elements with a 200 g mass
// at node 10.
func goldenBeam(left, right Support) *Beam {
	b, err := NewBeamRect(materials.Al6061, 0.3, 0.02, 0.004, 30)
	if err != nil {
		panic(err)
	}
	b.LeftBC, b.RightBC = left, right
	b.PointMasses = map[int]float64{10: 0.2}
	return b
}

// goldenIMU is a six-mass equipment chain: rack on its mounts, chassis on
// the rack, the IMU on four 45 Hz isolators, a supply and two cards.
func goldenIMU() *Lumped {
	s := NewLumped()
	for _, m := range []struct {
		name string
		kg   float64
	}{{"rack", 40}, {"chassis", 12}, {"imu", 6}, {"psu", 3}, {"cpu", 0.8}, {"io", 0.5}} {
		if err := s.AddMass(m.name, m.kg); err != nil {
			panic(err)
		}
	}
	kIso, _ := IsolatorStiffness(6, 45, 4)
	for _, sp := range []struct {
		a, b string
		k    float64
	}{
		{"rack", Ground, 4e7},
		{"chassis", "rack", 9e6},
		{"imu", "chassis", 4 * kIso},
		{"psu", "chassis", 2.5e6},
		{"cpu", "chassis", 8e5},
		{"io", "cpu", 3e5},
		{"io", "psu", 1e5},
	} {
		if err := s.AddSpring(sp.a, sp.b, sp.k); err != nil {
			panic(err)
		}
	}
	return s
}

func checkGolden(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d frequencies, want %d", name, len(got), len(want))
	}
	for i := range want {
		if rel := math.Abs(got[i]-want[i]) / want[i]; rel > goldenRelTol {
			t.Errorf("%s mode %d = %.17g Hz, golden %.17g (rel %.2g)", name, i+1, got[i], want[i], rel)
		}
	}
}

func TestGoldenPlateFEMFrequencies(t *testing.T) {
	all := [4]bool{true, true, true, true}
	for _, tc := range []struct {
		name       string
		sup, clamp [4]bool
		want       []float64
	}{
		{"SSSS", all, [4]bool{}, []float64{105.20794920203393, 280.7847085273591, 398.1207318737648, 888.3992597572274, 1005.352552423736, 1336.2424986978042}},
		{"CCCC", all, all, []float64{162.2062047262271, 389.99019543864546, 622.0614250058177, 1168.323754458664, 1366.5890996847502, 1806.5067945938165}},
		{"WedgeLocked", [4]bool{}, [4]bool{true, true, false, false}, []float64{82.96171268804599, 216.94670680837456, 375.2287801435404, 468.29127599310516, 570.8662916496507, 870.7613500170982}},
		{"SSSF", [4]bool{true, true, true, false}, [4]bool{}, []float64{58.83882269053659, 187.01937159475338, 361.40788449697646, 425.5706828645902, 811.9882763248786, 968.2052363971321}},
	} {
		p := goldenBoard(tc.sup, tc.clamp)
		got, err := p.ModalFrequencies(6)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, tc.name, got, tc.want)
		// BaseModes runs the eigenvector path; its frequencies must agree.
		modes, err := p.BaseModes(6)
		if err != nil {
			t.Fatal(err)
		}
		fromModes := make([]float64, len(modes))
		for i, m := range modes {
			fromModes[i] = m.FreqHz
		}
		checkGolden(t, tc.name+" BaseModes", fromModes, tc.want)
	}
}

func TestGoldenBeamFrequencies(t *testing.T) {
	for _, tc := range []struct {
		name        string
		left, right Support
		want        []float64
	}{
		{"PinnedPinned", Pinned, Pinned, []float64{41.92241268290442, 305.2057379744288, 916.2624815022633, 1306.9399841338886, 2263.400309069921, 3665.4174537937}},
		{"ClampedFree", Clamped, Free, []float64{30.928604390050655, 105.53873902713073, 453.70015679021475, 1222.0725644155323, 1802.039882679907, 2676.918783040111}},
	} {
		got, err := goldenBeam(tc.left, tc.right).ModalFrequencies(6)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, tc.name, got, tc.want)
	}
}

func TestGoldenLumpedIMUFrequencies(t *testing.T) {
	modes, err := goldenIMU().Modal()
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, len(modes))
	for i, m := range modes {
		got[i] = m.FreqHz
	}
	checkGolden(t, "IMU chain", got, []float64{43.301113965866634, 93.10761080113151, 125.33095815569104, 161.98067319451653, 195.1852060254129, 215.6156688534199})
}
