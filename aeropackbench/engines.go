package main

import (
	"fmt"

	"aeropack/internal/compact"
	"aeropack/internal/core"
	"aeropack/internal/cosee"
	"aeropack/internal/envtest"
	"aeropack/internal/materials"
	"aeropack/internal/mech"
	"aeropack/internal/serve"
)

// The conversions below mirror aeropackd's executor (internal/serve,
// study.go) expression for expression, so an in-process engine call on
// a decoded request computes the same floating-point values as the
// server does for that request's bytes.  The layer suite checks that
// bitwise.

// boardDesign converts a wire board spec into a core design.
func boardDesign(b *serve.BoardSpec) (*core.BoardDesign, core.Screen, error) {
	d := &core.BoardDesign{
		Name:         b.Name,
		LengthM:      b.LengthMM * 1e-3,
		WidthM:       b.WidthMM * 1e-3,
		ThicknessM:   b.ThicknessMM * 1e-3,
		CopperLayers: b.Copper.Layers,
		CopperOz:     b.Copper.Oz,
		CopperCover:  b.Copper.Coverage,
		RailTempC:    b.RailC,
		ChannelH:     b.ChannelH,
		ChannelAirC:  b.ChannelAirC,
		TargetModeHz: b.TargetModeHz,
		MassLoadKgM2: b.MassLoad,
	}
	switch b.Cooling {
	case "conduction", "":
		d.EdgeCooling = core.ConductionCooled
	case "forced-air":
		d.EdgeCooling = core.ForcedAir
	case "free-convection":
		d.EdgeCooling = core.FreeConvection
	default:
		return nil, core.Screen{}, fmt.Errorf("unknown cooling %q", b.Cooling)
	}
	for _, c := range b.Components {
		pkg, err := compact.Get(c.Package)
		if err != nil {
			return nil, core.Screen{}, err
		}
		d.Components = append(d.Components, &compact.Component{
			RefDes: c.RefDes, Pkg: pkg, Power: c.PowerW,
			X: c.XMM * 1e-3, Y: c.YMM * 1e-3,
		})
	}
	env := core.Envelope{L: 0.4, W: 0.3, H: 0.2}
	if e := b.Envelope; e != nil {
		env = core.Envelope{L: e.LMM * 1e-3, W: e.WMM * 1e-3, H: e.HMM * 1e-3}
	}
	screen := core.DefaultScreen(env)
	if b.ScreenAmbientC != 0 {
		screen.AmbientC = b.ScreenAmbientC
	}
	return d, screen, nil
}

// modalDesign is a board with the detailed plate FEM switched on and the
// given edge condition.
func modalDesign(b *serve.BoardSpec, edge string) (*core.BoardDesign, core.Screen, error) {
	d, screen, err := boardDesign(b)
	if err != nil {
		return nil, screen, err
	}
	d.DetailedMech = true
	switch edge {
	case "SSSS":
		d.Edges = mech.SSSS
	case "CCCC":
		d.Edges = mech.CCCC
	case "WedgeLocked":
		d.Edges = mech.WedgeLocked
	case "SSSF":
		d.Edges = mech.SSSF
	default:
		return nil, screen, fmt.Errorf("unknown edge condition %q", edge)
	}
	return d, screen, nil
}

// plateFEM builds the plate model core's detailed mechanical pass solves
// for a modal design: an 8×8 Kirchhoff mesh with the components as
// point masses.
func plateFEM(d *core.BoardDesign) (*mech.PlateFEM, error) {
	fem, err := mech.NewPlateFEM(d.LengthM, d.WidthM, d.ThicknessM,
		materials.PCB(d.CopperLayers, d.CopperOz, d.CopperCover, d.ThicknessM), 8, 8)
	if err != nil {
		return nil, err
	}
	fem.MassLoadKgM2 = d.MassLoadKgM2
	switch d.Edges {
	case mech.CCCC:
		fem.EdgesSupported = [4]bool{}
		fem.EdgesClamped = [4]bool{true, true, true, true}
	case mech.WedgeLocked:
		fem.EdgesSupported = [4]bool{}
		fem.EdgesClamped = [4]bool{false, false, true, true}
	case mech.SSSF:
		fem.EdgesSupported = [4]bool{true, true, true, false}
	}
	for _, c := range d.Components {
		fem.PointMasses = append(fem.PointMasses, mech.PointMass{X: c.X, Y: c.Y, Kg: c.Mass()})
	}
	return fem, nil
}

// coseeConfig converts a wire COSEE spec.
func coseeConfig(cs *serve.CoseeSpec) (cosee.Config, error) {
	c := cosee.Config{
		UseLHP:          cs.UseLHP,
		TiltDeg:         cs.TiltDeg,
		AmbientC:        cs.AmbientC,
		TIMName:         cs.TIM,
		CabinAltitudeM:  cs.CabinAltitudeM,
		UseThermosyphon: cs.UseThermosyphon,
	}
	if cs.Structure != "" {
		m, err := materials.Get(cs.Structure)
		if err != nil {
			return cosee.Config{}, err
		}
		c.Structure = m
	}
	return c, nil
}

// runQualification runs a qualification request's campaign in process
// with the server's default worker count.
func runQualification(q *serve.QualSpec) ([]envtest.Result, error) {
	a := &q.Article
	cfg, err := coseeConfig(&a.Cosee)
	if err != nil {
		return nil, err
	}
	art := &envtest.Article{
		Name:                a.Name,
		MassKg:              a.MassKg,
		MountFnHz:           a.MountFnHz,
		DampingZeta:         a.DampingZeta,
		MountArea:           a.MountAreaM2,
		MountYield:          a.MountYieldPa,
		BoardSpan:           a.BoardSpanM,
		BoardThk:            a.BoardThkM,
		CompLen:             a.CompLenM,
		CompConst:           a.CompConst,
		PosFactor:           a.PosFactor,
		FatigueExpB:         a.FatigueExpB,
		PowerW:              a.PowerW,
		MaxPointC:           a.MaxPointC,
		MinStartC:           a.MinStartC,
		ShockCyclesRequired: a.ShockCycles,
		JointDTFactor:       a.JointDTFactor,
		DeltaTAt: func(powerW float64) (float64, error) {
			pt, err := cfg.Solve(powerW)
			if err != nil {
				return 0, err
			}
			return pt.DeltaTK, nil
		},
	}
	if q.Extended {
		return envtest.DefaultExtended().RunAllParallel(art, 0)
	}
	return envtest.DefaultCampaign().RunAllParallel(art, 0)
}
