package mech

import (
	"fmt"
	"math"

	"aeropack/internal/linalg"
	"aeropack/internal/materials"
)

// Support enumerates beam end conditions.
type Support int

// Beam end conditions.
const (
	Free Support = iota
	Pinned
	Clamped
)

// Beam is a transversely vibrating Euler–Bernoulli beam discretised with
// 2-node Hermitian elements (2 DOF/node: deflection w and rotation θ).
// It models chassis rails, card edges and wedge-lock-supported board
// strips in the mechanical design flow.
type Beam struct {
	Length   float64 // m
	EI       float64 // bending stiffness, N·m²
	RhoA     float64 // mass per length, kg/m
	Elements int     // number of elements (≥2)
	LeftBC   Support
	RightBC  Support
	// PointMasses maps node index (0..Elements) to added mass, kg —
	// mounted components.
	PointMasses map[int]float64
}

// NewBeamRect builds a beam from a rectangular cross-section b×h of the
// given material.
func NewBeamRect(mat materials.Material, length, width, height float64, elements int) (*Beam, error) {
	if length <= 0 || width <= 0 || height <= 0 {
		return nil, fmt.Errorf("mech: beam dimensions must be positive")
	}
	if elements < 2 {
		return nil, fmt.Errorf("mech: need ≥2 elements")
	}
	inertia := width * height * height * height / 12
	return &Beam{
		Length:   length,
		EI:       mat.E * inertia,
		RhoA:     mat.Rho * width * height,
		Elements: elements,
		LeftBC:   Pinned,
		RightBC:  Pinned,
	}, nil
}

// assemble builds the global stiffness and consistent-mass matrices with
// boundary conditions applied by DOF elimination; it returns the retained
// DOF map (global DOF → matrix row).
func (b *Beam) assemble() (*linalg.Dense, *linalg.Dense, []int, error) {
	if b.Elements < 2 || b.Length <= 0 || b.EI <= 0 || b.RhoA <= 0 {
		return nil, nil, nil, fmt.Errorf("mech: invalid beam definition")
	}
	ne := b.Elements
	nn := ne + 1
	ndof := 2 * nn
	l := b.Length / float64(ne)
	k := linalg.NewDense(ndof, ndof)
	m := linalg.NewDense(ndof, ndof)

	// Hermitian beam element matrices.
	ke := [4][4]float64{
		{12, 6 * l, -12, 6 * l},
		{6 * l, 4 * l * l, -6 * l, 2 * l * l},
		{-12, -6 * l, 12, -6 * l},
		{6 * l, 2 * l * l, -6 * l, 4 * l * l},
	}
	me := [4][4]float64{
		{156, 22 * l, 54, -13 * l},
		{22 * l, 4 * l * l, 13 * l, -3 * l * l},
		{54, 13 * l, 156, -22 * l},
		{-13 * l, -3 * l * l, -22 * l, 4 * l * l},
	}
	kf := b.EI / (l * l * l)
	mf := b.RhoA * l / 420
	for e := 0; e < ne; e++ {
		dofs := [4]int{2 * e, 2*e + 1, 2*e + 2, 2*e + 3}
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				k.Add(dofs[i], dofs[j], kf*ke[i][j])
				m.Add(dofs[i], dofs[j], mf*me[i][j])
			}
		}
	}
	for node, pm := range b.PointMasses {
		if node < 0 || node >= nn {
			return nil, nil, nil, fmt.Errorf("mech: point mass node %d out of range", node)
		}
		m.Add(2*node, 2*node, pm)
	}

	// Fixed DOFs per end condition.
	fixed := map[int]bool{}
	switch b.LeftBC {
	case Pinned:
		fixed[0] = true
	case Clamped:
		fixed[0], fixed[1] = true, true
	}
	switch b.RightBC {
	case Pinned:
		fixed[2*(nn-1)] = true
	case Clamped:
		fixed[2*(nn-1)], fixed[2*(nn-1)+1] = true, true
	}
	keep := make([]int, 0, ndof)
	for d := 0; d < ndof; d++ {
		if !fixed[d] {
			keep = append(keep, d)
		}
	}
	kr := linalg.NewDense(len(keep), len(keep))
	mr := linalg.NewDense(len(keep), len(keep))
	for i, di := range keep {
		for j, dj := range keep {
			kr.Set(i, j, k.At(di, dj))
			mr.Set(i, j, m.At(di, dj))
		}
	}
	return kr, mr, keep, nil
}

// ModalFrequencies returns the first nModes natural frequencies in Hz.
func (b *Beam) ModalFrequencies(nModes int) ([]float64, error) {
	kr, mr, _, err := b.assemble()
	if err != nil {
		return nil, err
	}
	vals, err := linalg.EigenGeneralValues(kr, mr)
	if err != nil {
		return nil, err
	}
	if nModes > len(vals) {
		nModes = len(vals)
	}
	out := make([]float64, 0, nModes)
	for _, lam := range vals[:nModes] {
		if lam < 0 {
			lam = 0
		}
		out = append(out, math.Sqrt(lam)/(2*math.Pi))
	}
	return out, nil
}

// FundamentalHz returns the first natural frequency.
func (b *Beam) FundamentalHz() (float64, error) {
	f, err := b.ModalFrequencies(1)
	if err != nil {
		return 0, err
	}
	if len(f) == 0 {
		return 0, fmt.Errorf("mech: no flexible modes")
	}
	return f[0], nil
}

// AnalyticBeamFreq returns the classical closed-form natural frequency
// (Hz) of mode n for the given end conditions — the verification reference
// for the FEM.  Supported pairs: Pinned-Pinned, Clamped-Clamped,
// Clamped-Free.
func AnalyticBeamFreq(ei, rhoA, length float64, leftBC, rightBC Support, n int) (float64, error) {
	if n < 1 {
		return 0, fmt.Errorf("mech: mode number must be ≥1")
	}
	var betaL float64
	switch {
	case leftBC == Pinned && rightBC == Pinned:
		betaL = float64(n) * math.Pi
	case leftBC == Clamped && rightBC == Clamped:
		roots := []float64{4.73004, 7.85320, 10.9956, 14.1372, 17.2788}
		if n <= len(roots) {
			betaL = roots[n-1]
		} else {
			betaL = (2*float64(n) + 1) * math.Pi / 2
		}
	case leftBC == Clamped && rightBC == Free:
		roots := []float64{1.87510, 4.69409, 7.85476, 10.9955, 14.1372}
		if n <= len(roots) {
			betaL = roots[n-1]
		} else {
			betaL = (2*float64(n) - 1) * math.Pi / 2
		}
	default:
		return 0, fmt.Errorf("mech: unsupported end-condition pair for the analytic formula")
	}
	w := betaL * betaL * math.Sqrt(ei/(rhoA*math.Pow(length, 4)))
	return w / (2 * math.Pi), nil
}
