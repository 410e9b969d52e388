package mech

import (
	"fmt"
	"math"

	"aeropack/internal/linalg"
	"aeropack/internal/materials"
)

// PlateFEM is a rectangular Kirchhoff thin-plate finite-element model
// using the classical 4-node, 12-DOF ACM (Adini–Clough–Melosh) element —
// the workhorse for PCB modal analysis when the closed-form coefficients
// of Plate can't represent discrete component masses, local stiffeners or
// mixed edge support.  DOF per node: (w, θx = ∂w/∂y, θy = −∂w/∂x).
type PlateFEM struct {
	A, B      float64 // plate dimensions, m
	Thickness float64
	Material  materials.Material
	Nx, Ny    int // element grid
	// EdgesSupported marks simply supported (w=0) edges: x-, x+, y-, y+.
	EdgesSupported [4]bool
	// EdgesClamped additionally fixes both rotations on an edge.
	EdgesClamped [4]bool
	// MassLoadKgM2 smears distributed component mass.
	MassLoadKgM2 float64
	// PointMasses places discrete masses at physical (x, y) positions.
	PointMasses []PointMass
}

// PointMass is a discrete mass on the plate.
type PointMass struct {
	X, Y float64 // m
	Kg   float64
}

// NewPlateFEM builds a model with a default simply-supported boundary.
func NewPlateFEM(a, b, thickness float64, mat materials.Material, nx, ny int) (*PlateFEM, error) {
	if a <= 0 || b <= 0 || thickness <= 0 {
		return nil, fmt.Errorf("mech: plate dimensions must be positive")
	}
	if nx < 2 || ny < 2 {
		return nil, fmt.Errorf("mech: need ≥2 elements per side")
	}
	if mat.E <= 0 || mat.Rho <= 0 {
		return nil, fmt.Errorf("mech: plate material needs E and rho")
	}
	return &PlateFEM{
		A: a, B: b, Thickness: thickness, Material: mat,
		Nx: nx, Ny: ny,
		EdgesSupported: [4]bool{true, true, true, true},
	}, nil
}

// acmElement returns the 12×12 stiffness and consistent mass matrices of
// an ACM element of half-dimensions (ax, by) with flexural rigidity d,
// Poisson nu and areal mass rhoH.  Built by numerical integration of the
// ACM shape functions (3×3 Gauss), which reproduces the classical closed
// forms to machine precision and keeps the code auditable.
func acmElement(ax, by, d, nu, rhoH float64) (k, m [12][12]float64) {
	// Shape functions in natural coords ξ,η ∈ [−1,1] for nodes
	// (−1,−1), (1,−1), (1,1), (−1,1); per node: (w, θx, θy).
	// ACM polynomial basis: the standard 12-term set of Hermite-style
	// products.
	nfunc := func(xi, eta float64) (n [12]float64) {
		xs := []float64{-1, 1, 1, -1}
		es := []float64{-1, -1, 1, 1}
		for i := 0; i < 4; i++ {
			x0, e0 := xs[i], es[i]
			xx := xi * x0
			ee := eta * e0
			n[3*i] = 0.125 * (1 + xx) * (1 + ee) * (2 + xx + ee - xi*xi - eta*eta)
			n[3*i+1] = 0.125 * by * e0 * (1 + xx) * (1 + ee) * (1 + ee) * (ee - 1)
			n[3*i+2] = -0.125 * ax * x0 * (1 + ee) * (1 + xx) * (1 + xx) * (xx - 1)
		}
		return n
	}

	// Numerical second derivatives of the shape functions via central
	// differences in natural coordinates (the basis is polynomial, so a
	// modest step is exact to round-off).
	const h = 1e-4
	d2 := func(xi, eta float64) (nxx, nyy, nxy [12]float64) {
		np := nfunc(xi+h, eta)
		nm := nfunc(xi-h, eta)
		n0 := nfunc(xi, eta)
		ep := nfunc(xi, eta+h)
		em := nfunc(xi, eta-h)
		pp := nfunc(xi+h, eta+h)
		pm := nfunc(xi+h, eta-h)
		mp := nfunc(xi-h, eta+h)
		mm := nfunc(xi-h, eta-h)
		for j := 0; j < 12; j++ {
			// ∂²/∂x² = (1/ax²)·∂²/∂ξ² etc.
			nxx[j] = (np[j] - 2*n0[j] + nm[j]) / (h * h) / (ax * ax)
			nyy[j] = (ep[j] - 2*n0[j] + em[j]) / (h * h) / (by * by)
			nxy[j] = (pp[j] - pm[j] - mp[j] + mm[j]) / (4 * h * h) / (ax * by)
		}
		return
	}

	// 3-point Gauss rule.
	gp := []float64{-math.Sqrt(3.0 / 5.0), 0, math.Sqrt(3.0 / 5.0)}
	gw := []float64{5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0}
	jac := ax * by // dA = ax·by·dξ·dη
	for ix, xi := range gp {
		for ie, eta := range gp {
			w := gw[ix] * gw[ie] * jac
			nxx, nyy, nxy := d2(xi, eta)
			n := nfunc(xi, eta)
			for i := 0; i < 12; i++ {
				for j := 0; j < 12; j++ {
					k[i][j] += w * d * (nxx[i]*nxx[j] + nyy[i]*nyy[j] +
						nu*(nxx[i]*nyy[j]+nyy[i]*nxx[j]) +
						2*(1-nu)*nxy[i]*nxy[j])
					m[i][j] += w * rhoH * n[i] * n[j]
				}
			}
		}
	}
	return k, m
}

// assemble builds the stiffness and mass matrices over the retained
// (unconstrained) DOFs, scattering element and point-mass contributions
// straight into them, and returns keep, the global DOF of each retained
// row.
func (p *PlateFEM) assemble() (kr, mr *linalg.Dense, keep []int, err error) {
	nnx, nny := p.Nx+1, p.Ny+1
	ndof := 3 * nnx * nny
	nodeID := func(i, j int) int { return j*nnx + i }

	// Boundary conditions: edge order x-, x+, y-, y+.
	fixed := make([]bool, ndof)
	mark := func(i, j, edge int) {
		id := nodeID(i, j)
		if p.EdgesSupported[edge] || p.EdgesClamped[edge] {
			fixed[3*id] = true
		}
		if p.EdgesClamped[edge] {
			fixed[3*id+1] = true
			fixed[3*id+2] = true
		}
	}
	for j := 0; j < nny; j++ {
		mark(0, j, 0)
		mark(nnx-1, j, 1)
	}
	for i := 0; i < nnx; i++ {
		mark(i, 0, 2)
		mark(i, nny-1, 3)
	}
	// red maps a global DOF to its retained row, or −1 when constrained.
	red := make([]int, ndof)
	keep = make([]int, 0, ndof)
	for dd := 0; dd < ndof; dd++ {
		red[dd] = -1
		if !fixed[dd] {
			red[dd] = len(keep)
			keep = append(keep, dd)
		}
	}

	ax := p.A / float64(p.Nx) / 2
	by := p.B / float64(p.Ny) / 2
	h := p.Thickness
	d := p.Material.E * h * h * h / (12 * (1 - p.Material.Nu*p.Material.Nu))
	rhoH := p.Material.Rho*h + p.MassLoadKgM2
	ke, me := acmElement(ax, by, d, p.Material.Nu, rhoH)

	kr = linalg.NewDense(len(keep), len(keep))
	mr = linalg.NewDense(len(keep), len(keep))
	for ej := 0; ej < p.Ny; ej++ {
		for ei := 0; ei < p.Nx; ei++ {
			nodes := [4]int{
				nodeID(ei, ej), nodeID(ei+1, ej),
				nodeID(ei+1, ej+1), nodeID(ei, ej+1),
			}
			for a := 0; a < 4; a++ {
				for da := 0; da < 3; da++ {
					ra := red[3*nodes[a]+da]
					if ra < 0 {
						continue
					}
					for b := 0; b < 4; b++ {
						for db := 0; db < 3; db++ {
							rb := red[3*nodes[b]+db]
							if rb < 0 {
								continue
							}
							kr.Add(ra, rb, ke[3*a+da][3*b+db])
							mr.Add(ra, rb, me[3*a+da][3*b+db])
						}
					}
				}
			}
		}
	}
	// Point masses on the w-DOF of the nearest node; one on a supported
	// node moves nothing.
	for _, pm := range p.PointMasses {
		if pm.Kg <= 0 {
			return nil, nil, nil, fmt.Errorf("mech: point mass must be positive")
		}
		if pm.X < 0 || pm.X > p.A || pm.Y < 0 || pm.Y > p.B {
			return nil, nil, nil, fmt.Errorf("mech: point mass at (%g,%g) off plate", pm.X, pm.Y)
		}
		i := int(math.Round(pm.X / p.A * float64(p.Nx)))
		j := int(math.Round(pm.Y / p.B * float64(p.Ny)))
		if r := red[3*nodeID(i, j)]; r >= 0 {
			mr.Add(r, r, pm.Kg)
		}
	}
	if len(keep) == ndof {
		return nil, nil, nil, fmt.Errorf("mech: free-free plates not supported (no constrained DOF)")
	}
	return kr, mr, keep, nil
}

// ModalFrequencies returns the first nModes natural frequencies in Hz.
func (p *PlateFEM) ModalFrequencies(nModes int) ([]float64, error) {
	kr, mr, _, err := p.assemble()
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
func (p *PlateFEM) FundamentalHz() (float64, error) {
	f, err := p.ModalFrequencies(1)
	if err != nil {
		return 0, err
	}
	if len(f) == 0 {
		return 0, fmt.Errorf("mech: no flexible modes")
	}
	return f[0], nil
}

// BaseModes returns the first nModes base-excitation modes of the plate:
// mass-normalised translational shapes sampled on the node grid (row-major
// (Nx+1)×(Ny+1) flattened) with participation factors — the input
// vibration.DistributedRandomRMS needs for full-board random response.
func (p *PlateFEM) BaseModes(nModes int) ([]DistMode, error) {
	kr, mr, keep, err := p.assemble()
	if err != nil {
		return nil, err
	}
	vals, vecs, err := linalg.EigenGeneral(kr, mr)
	if err != nil {
		return nil, err
	}
	if nModes > len(vals) {
		nModes = len(vals)
	}
	nn := (p.Nx + 1) * (p.Ny + 1)
	out := make([]DistMode, 0, nModes)
	for j := 0; j < nModes; j++ {
		lam := vals[j]
		if lam < 0 {
			lam = 0
		}
		phi := make([]float64, len(keep))
		for i := range keep {
			phi[i] = vecs.At(i, j)
		}
		gamma := 0.0
		for i := range keep {
			for l, dl := range keep {
				if dl%3 != 0 {
					continue // rotational DOF carry no base influence
				}
				gamma += phi[i] * mr.At(i, l)
			}
		}
		shape := make([]float64, nn)
		for i, d := range keep {
			if d%3 == 0 {
				shape[d/3] = phi[i]
			}
		}
		out = append(out, DistMode{
			FreqHz:        math.Sqrt(lam) / (2 * math.Pi),
			Shape:         shape,
			Participation: gamma,
		})
	}
	return out, nil
}
