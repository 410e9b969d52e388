// Package envtest runs virtual environmental qualification campaigns —
// the paper's §IV.A test block on the COSEE seats: linear acceleration
// (9 g, 3 min per axis), random vibration (DO-160 curve C1), climatic
// performance (−25…+55 °C ambient) and thermal shock (−45/+55 °C at
// 5 °C/min).  Each test drives the article's structural and thermal
// models and reports a quantified pass/fail with margin, replacing the
// physical shaker / chamber / centrifuge.
package envtest

import (
	"fmt"
	"math"

	"aeropack/internal/obs"
	"aeropack/internal/reliability"
	"aeropack/internal/robust"
	"aeropack/internal/units"
	"aeropack/internal/vibration"
)

// recordResults publishes campaign counters (envtest_tests_total,
// envtest_test_failures_total) for the results of one campaign run; a
// disabled registry costs one atomic load.
func recordResults(results []Result) {
	r := obs.Default()
	if r == nil {
		return
	}
	r.Counter("envtest_tests_total").Add(int64(len(results)))
	for _, res := range results {
		if !res.Pass {
			r.Counter("envtest_test_failures_total").Inc()
		}
	}
}

// Article is the unit under test: enough of a structural/thermal
// description to drive every qualification test.
type Article struct {
	Name string

	// Structural model.
	MassKg      float64 // suspended mass
	MountFnHz   float64 // mounted fundamental frequency
	DampingZeta float64 // modal damping ratio
	MountArea   float64 // total fastener/bond shear area, m²
	MountYield  float64 // allowable mount stress, Pa

	// Board fatigue (Steinberg) model.
	BoardSpan   float64 // board dimension, m
	BoardThk    float64 // board thickness, m
	CompLen     float64 // critical component length, m
	CompConst   float64 // Steinberg component constant c
	PosFactor   float64 // Steinberg position factor r
	FatigueExpB float64 // Basquin exponent b for three-band damage

	// Thermal model: ΔT of the critical point above ambient at the
	// operating power (the COSEE SEB model plugs in here).
	PowerW   float64
	DeltaTAt func(powerW float64) (float64, error)
	// MaxPointC is the maximum allowed critical-point temperature, °C.
	MaxPointC float64
	// MinStartC is the minimum ambient the unit must start at, °C.
	MinStartC float64

	// Thermal-shock (solder/joint fatigue) model.
	ShockCyclesRequired int     // qualification cycle count
	JointDTFactor       float64 // fraction of chamber swing seen by joints
}

// Validate checks the article definition.
func (a *Article) Validate() error {
	if a.Name == "" {
		return fmt.Errorf("envtest: article needs a name")
	}
	if a.MassKg <= 0 || a.MountFnHz <= 0 || a.DampingZeta <= 0 ||
		a.MountArea <= 0 || a.MountYield <= 0 {
		return fmt.Errorf("envtest: %s structural parameters invalid", a.Name)
	}
	if a.BoardSpan <= 0 || a.BoardThk <= 0 || a.CompLen <= 0 ||
		a.CompConst <= 0 || a.PosFactor <= 0 || a.FatigueExpB <= 0 {
		return fmt.Errorf("envtest: %s board fatigue parameters invalid", a.Name)
	}
	if a.PowerW <= 0 || a.DeltaTAt == nil {
		return fmt.Errorf("envtest: %s thermal model missing", a.Name)
	}
	if a.ShockCyclesRequired <= 0 || a.JointDTFactor <= 0 || a.JointDTFactor > 1 {
		return fmt.Errorf("envtest: %s shock parameters invalid", a.Name)
	}
	return nil
}

// Result is one test outcome.
type Result struct {
	Test   string
	Pass   bool
	Metric float64 // achieved value
	Limit  float64 // allowable
	Units  string
	Detail string
}

// Margin returns the relative margin (positive = safe).
func (r Result) Margin() float64 {
	if r.Limit == 0 {
		return 0
	}
	return 1 - r.Metric/r.Limit
}

// Campaign describes the test levels (COSEE values as defaults via
// DefaultCampaign).
type Campaign struct {
	AccelG        float64 // linear acceleration level
	VibCurve      string  // DO-160 random curve designation
	VibDurationS  float64 // per-axis random endurance
	ClimaticLowC  float64
	ClimaticHighC float64
	ShockLowC     float64
	ShockHighC    float64
	ShockRateCMin float64 // ramp rate, °C/min
}

// DefaultCampaign returns the paper's COSEE qualification levels: 9 g for
// 3 min per axis, DO-160 C1 random vibration, −25…+55 °C climatic,
// −45/+55 °C shock at 5 °C/min.
func DefaultCampaign() Campaign {
	return Campaign{
		AccelG:        9,
		VibCurve:      "C1",
		VibDurationS:  units.Hour(3), // 1 h per axis endurance
		ClimaticLowC:  -25,
		ClimaticHighC: 55,
		ShockLowC:     -45,
		ShockHighC:    55,
		ShockRateCMin: 5,
	}
}

// RunAcceleration applies the static-equivalent linear acceleration test.
func (c Campaign) RunAcceleration(a *Article) (Result, error) {
	if err := a.Validate(); err != nil {
		return Result{}, err
	}
	force := a.MassKg * units.GLevel(c.AccelG)
	stress := force / a.MountArea
	return Result{
		Test:   fmt.Sprintf("linear acceleration %g g (3 min/axis)", c.AccelG),
		Pass:   stress < a.MountYield,
		Metric: stress, Limit: a.MountYield, Units: "Pa",
		Detail: fmt.Sprintf("mount stress %.3g Pa vs allowable %.3g Pa", stress, a.MountYield),
	}, nil
}

// RunVibration applies the DO-160 random test: exact RMS response through
// the article's mounted mode, Steinberg allowable deflection, three-band
// fatigue damage over the endurance duration.
func (c Campaign) RunVibration(a *Article) (Result, error) {
	if err := a.Validate(); err != nil {
		return Result{}, err
	}
	psd, err := vibration.DO160(c.VibCurve)
	if err != nil {
		return Result{}, err
	}
	gRMS, err := vibration.ResponseRMS(psd, a.MountFnHz, a.DampingZeta)
	if err != nil {
		return Result{}, err
	}
	zLimit, err := vibration.SteinbergMaxDisp(a.BoardSpan, a.CompLen, a.BoardThk, a.CompConst, a.PosFactor)
	if err != nil {
		return Result{}, err
	}
	z3 := vibration.BoardDisp3Sigma(gRMS, a.MountFnHz)
	zRatio := z3 / zLimit // Z3σ over the 20-Mcycle allowable
	damage, err := vibration.ThreeBandDamage(a.MountFnHz, c.VibDurationS, zRatio, a.FatigueExpB)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Test:   fmt.Sprintf("random vibration DO-160 curve %s", c.VibCurve),
		Pass:   damage < 1,
		Metric: damage, Limit: 1, Units: "Miner damage",
		Detail: fmt.Sprintf("response %.2f gRMS, Z3σ %.1f µm vs limit %.1f µm, damage %.3g",
			gRMS, z3*1e6, zLimit*1e6, damage),
	}, nil
}

// RunClimatic verifies hot-performance (critical point below its limit at
// the chamber high) and cold start (chamber low above the minimum start
// ambient).
func (c Campaign) RunClimatic(a *Article) (Result, error) {
	if err := a.Validate(); err != nil {
		return Result{}, err
	}
	dT, err := a.DeltaTAt(a.PowerW)
	if err != nil {
		return Result{}, err
	}
	hotPoint := c.ClimaticHighC + dT
	coldOK := c.ClimaticLowC >= a.MinStartC
	pass := hotPoint < a.MaxPointC && coldOK
	detail := fmt.Sprintf("critical point %.1f °C at %+.0f °C ambient (limit %.0f °C)",
		hotPoint, c.ClimaticHighC, a.MaxPointC)
	if !coldOK {
		detail += fmt.Sprintf("; cold start at %+.0f °C below rated %+.0f °C",
			c.ClimaticLowC, a.MinStartC)
	}
	return Result{
		Test:   fmt.Sprintf("climatic %+.0f…%+.0f °C", c.ClimaticLowC, c.ClimaticHighC),
		Pass:   pass,
		Metric: hotPoint, Limit: a.MaxPointC, Units: "°C",
		Detail: detail,
	}, nil
}

// RunThermalShock applies the −45/+55 °C shock cycling: Coffin–Manson
// joint life against the required cycle count.
func (c Campaign) RunThermalShock(a *Article) (Result, error) {
	if err := a.Validate(); err != nil {
		return Result{}, err
	}
	swing := (c.ShockHighC - c.ShockLowC) * a.JointDTFactor
	nf, err := reliability.CoffinManson(swing, 0, 0)
	if err != nil {
		return Result{}, err
	}
	damage := float64(a.ShockCyclesRequired) / nf
	return Result{
		Test: fmt.Sprintf("thermal shock %+.0f/%+.0f °C at %g °C/min",
			c.ShockLowC, c.ShockHighC, c.ShockRateCMin),
		Pass:   damage < 1,
		Metric: damage, Limit: 1, Units: "Miner damage",
		Detail: fmt.Sprintf("joint swing %.0f K, life %.0f cycles vs %d required",
			swing, nf, a.ShockCyclesRequired),
	}, nil
}

// Run executes the paper's four tests in order under o: the tests run
// across at most o.Workers goroutines and the results come back in the
// paper's order, identical at any worker count.  The tests only read
// the article, but they all call a.DeltaTAt, so that callback must be
// safe for concurrent use (pure functions and the cosee solvers are).
// Without o.KeepGoing the first failing test (lowest index) aborts the
// campaign.  With it, a failed test yields a robust.PointError labelled
// with the test's short name plus a failed placeholder Result carrying
// the error detail, every other test still runs, and an invalid article
// is reported as the single PointError "validate".
func (c Campaign) Run(a *Article, o robust.Options) ([]Result, []*robust.PointError, error) {
	return run("envtest.RunAll", a, c.labelledRuns(), o)
}

// RunAllParallel is Run aborting on the first failure.  It stays
// because the aeropackbench module, which pins its signature, calls it.
func (c Campaign) RunAllParallel(a *Article, workers int) ([]Result, error) {
	results, _, err := c.Run(a, robust.Options{Workers: workers})
	return results, err
}

// labelledRun pairs a test with a stable short name so keep-going
// campaign runners can identify failed tests before a Result exists.
type labelledRun struct {
	label string
	run   func(*Article) (Result, error)
}

func (c Campaign) labelledRuns() []labelledRun {
	return []labelledRun{
		{"acceleration", c.RunAcceleration},
		{"vibration", c.RunVibration},
		{"climatic", c.RunClimatic},
		{"thermal-shock", c.RunThermalShock},
	}
}

// run is the one campaign runner behind Campaign.Run and Extended.Run.
func run(spanName string, a *Article, runs []labelledRun, o robust.Options) ([]Result, []*robust.PointError, error) {
	if err := a.Validate(); err != nil {
		if o.KeepGoing {
			return nil, []*robust.PointError{{Index: 0, Label: "validate", Err: err}}, nil
		}
		return nil, nil, err
	}
	sp := obs.Start(nil, spanName)
	defer sp.End()
	sp.Attr("article", a.Name)
	if o.KeepGoing {
		sp.Attr("keep_going", "true")
	}
	prog := obs.CurrentBoard().Begin(spanName+" "+a.Name, len(runs))
	defer prog.Finish()
	out, errs, err := robust.Map(runs, o,
		func(_ int, r labelledRun) string { return r.label },
		func(_ int, r labelledRun) (Result, error) {
			res, err := r.run(a)
			prog.Step(1) // failed tests count as visited
			return res, err
		})
	if err != nil {
		return nil, nil, err
	}
	for _, pe := range errs {
		out[pe.Index] = Result{Test: runs[pe.Index].label, Detail: "ERROR: " + pe.Err.Error()}
	}
	recordResults(out)
	return out, errs, nil
}

// AllPass reports whether every result passed.
func AllPass(results []Result) bool {
	if len(results) == 0 {
		return false
	}
	for _, r := range results {
		if !r.Pass {
			return false
		}
	}
	return true
}

// WorstMargin returns the smallest relative margin across results.
func WorstMargin(results []Result) float64 {
	worst := math.Inf(1)
	for _, r := range results {
		if m := r.Margin(); m < worst {
			worst = m
		}
	}
	return worst
}
