package mech

import (
	"fmt"
	"math"

	"aeropack/internal/linalg"
)

// DistMode is one base-excitation mode of a distributed structure: the
// natural frequency, the mass-normalised deflection shape sampled at the
// structural nodes, and the modal participation factor Γ = φᵀ·M·ι for the
// rigid-body influence vector ι (unit translation).
type DistMode struct {
	FreqHz        float64
	Shape         []float64 // translational DOF per node (0..Elements)
	Participation float64
}

// BaseModes returns the first nModes base-excitation modes of the beam,
// ready for modal-superposition response analysis (the level of rigour
// Steinberg's single-mode approximation upgrades to when a board has
// closely spaced modes).
func (b *Beam) BaseModes(nModes int) ([]DistMode, error) {
	kr, mr, keep, err := b.assemble()
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
	nn := b.Elements + 1
	out := make([]DistMode, 0, nModes)
	for j := 0; j < nModes; j++ {
		lam := vals[j]
		if lam < 0 {
			lam = 0
		}
		// Influence vector ι: unit base translation maps to 1 on every
		// retained translational DOF (even global indices), 0 on
		// rotations; Γ = φᵀ·M·ι.
		phi := make([]float64, len(keep))
		for i := range keep {
			phi[i] = vecs.At(i, j)
		}
		gamma := 0.0
		for i := range keep {
			for l, dl := range keep {
				if dl%2 != 0 {
					continue
				}
				gamma += phi[i] * mr.At(i, l)
			}
		}
		// Sample the translational shape at every node (fixed nodes → 0).
		shape := make([]float64, nn)
		for i, d := range keep {
			if d%2 == 0 {
				shape[d/2] = phi[i]
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

// EffectiveModalMass returns Γ² for a mass-normalised mode — the fraction
// of structural mass the mode carries under base excitation.  Summed over
// all modes it equals the total (translational) mass.
func (m DistMode) EffectiveModalMass() float64 {
	return m.Participation * m.Participation
}

// ModalMassFraction reports the cumulative effective mass fraction the
// given modes capture of totalMass — the standard ≥90% completeness check
// for modal-superposition analyses.
func ModalMassFraction(modes []DistMode, totalMass float64) (float64, error) {
	if totalMass <= 0 {
		return 0, fmt.Errorf("mech: total mass must be positive")
	}
	sum := 0.0
	for _, m := range modes {
		sum += m.EffectiveModalMass()
	}
	return sum / totalMass, nil
}
