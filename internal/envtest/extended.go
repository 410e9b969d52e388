package envtest

import (
	"fmt"
	"math"

	"aeropack/internal/robust"
	"aeropack/internal/units"
	"aeropack/internal/vibration"
)

// Extended test levels beyond the paper's COSEE block: the operational
// shock pulse and the sine-sweep resonance survey that a full DO-160
// qualification would add.  They exercise the shock-response-spectrum and
// swept-sine machinery of internal/vibration.
type Extended struct {
	Campaign
	// ShockPulseG / ShockPulseMs: half-sine operational shock (DO-160 §7
	// standard: 6 g / 11 ms).
	ShockPulseG  float64
	ShockPulseMs float64
	// SineAmpG / SineF0 / SineF1: swept-sine survey level and band.
	SineAmpG float64
	SineF0   float64
	SineF1   float64
}

// DefaultExtended wraps DefaultCampaign with the customary DO-160 shock
// and sweep levels.
func DefaultExtended() Extended {
	return Extended{
		Campaign:     DefaultCampaign(),
		ShockPulseG:  6,
		ShockPulseMs: 11,
		SineAmpG:     1,
		SineF0:       10,
		SineF1:       2000,
	}
}

// RunShockPulse evaluates the half-sine operational shock via the shock
// response spectrum at the article's mounted frequency: the peak
// acceleration load on the mounts must stay below the static allowable.
func (e Extended) RunShockPulse(a *Article) (Result, error) {
	if err := a.Validate(); err != nil {
		return Result{}, err
	}
	srs, err := vibration.HalfSineSRS(e.ShockPulseG, e.ShockPulseMs/1000,
		[]float64{a.MountFnHz}, mechQ(a.DampingZeta))
	if err != nil {
		return Result{}, err
	}
	peakG := srs[0]
	force := a.MassKg * units.GLevel(peakG)
	stress := force / a.MountArea
	return Result{
		Test:   fmt.Sprintf("operational shock %g g / %g ms half-sine", e.ShockPulseG, e.ShockPulseMs),
		Pass:   stress < a.MountYield,
		Metric: stress, Limit: a.MountYield, Units: "Pa",
		Detail: fmt.Sprintf("SRS %.1f g at %g Hz → mount stress %.3g Pa", peakG, a.MountFnHz, stress),
	}, nil
}

// RunSineSweep surveys the article over the sweep band: the resonant
// response drives the board deflection, checked against the Steinberg
// allowable (single-pass survey, so the limit is the full allowable
// rather than a fatigue fraction).
func (e Extended) RunSineSweep(a *Article) (Result, error) {
	if err := a.Validate(); err != nil {
		return Result{}, err
	}
	peakG, err := vibration.SineSweepPeak(a.MountFnHz, a.DampingZeta,
		e.SineF0, e.SineF1, func(f float64) float64 { return e.SineAmpG })
	if err != nil {
		return Result{}, err
	}
	// Peak single-amplitude deflection at resonance.
	z := units.GLevel(peakG) / sq(2*3.141592653589793*a.MountFnHz)
	zLim, err := vibration.SteinbergMaxDisp(a.BoardSpan, a.CompLen, a.BoardThk, a.CompConst, a.PosFactor)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Test:   fmt.Sprintf("sine sweep %g g, %g–%g Hz", e.SineAmpG, e.SineF0, e.SineF1),
		Pass:   z < zLim,
		Metric: z, Limit: zLim, Units: "m",
		Detail: fmt.Sprintf("resonant response %.1f g → deflection %.1f µm vs allowable %.1f µm",
			peakG, z*1e6, zLim*1e6),
	}, nil
}

// Run executes the paper's four tests plus the extended pair under o,
// with the same ordering, concurrency and keep-going contract as
// Campaign.Run.
func (e Extended) Run(a *Article, o robust.Options) ([]Result, []*robust.PointError, error) {
	runs := append(e.Campaign.labelledRuns(),
		labelledRun{"shock-pulse", e.RunShockPulse},
		labelledRun{"sine-sweep", e.RunSineSweep},
	)
	return run("envtest.RunAllExtended", a, runs, o)
}

// RunAllParallel is Run aborting on the first failure.  It stays
// because the aeropackbench module, which pins its signature, calls it.
func (e Extended) RunAllParallel(a *Article, workers int) ([]Result, error) {
	results, _, err := e.Run(a, robust.Options{Workers: workers})
	return results, err
}

func mechQ(zeta float64) float64 {
	if zeta <= 0 {
		return 50
	}
	return 1 / (2 * zeta)
}

func sq(x float64) float64 { return x * x }

// DewPointC returns the dew point (°C) for air at tC (°C) and relative
// humidity rh (0..1) via the Magnus formula — the psychrometrics behind
// cold-soak condensation checks.
func DewPointC(tC, rh float64) (float64, error) {
	if rh <= 0 || rh > 1 {
		return 0, fmt.Errorf("envtest: relative humidity must be in (0,1]")
	}
	const a, b = 17.62, 243.12
	gamma := math.Log(rh) + a*tC/(b+tC)
	return b * gamma / (a - gamma), nil
}

// RunCondensation checks the cold-soak scenario: the unit soaks at the
// climatic low, is then exposed to cabin air at cabinC / rh, and its
// surfaces must warm past the dew point within warmupS seconds (first-
// order warm-up with time constant tauS) or condensation forms on live
// electronics — the moisture companion to the paper's climatic test.
func (e Extended) RunCondensation(a *Article, cabinC, rh, tauS, warmupS float64) (Result, error) {
	if err := a.Validate(); err != nil {
		return Result{}, err
	}
	if tauS <= 0 || warmupS <= 0 {
		return Result{}, fmt.Errorf("envtest: invalid warm-up parameters")
	}
	dew, err := DewPointC(cabinC, rh)
	if err != nil {
		return Result{}, err
	}
	// Surface temperature after the warm-up window (first-order approach
	// from the soak temperature to cabin temperature).
	t0 := e.ClimaticLowC
	surf := cabinC + (t0-cabinC)*math.Exp(-warmupS/tauS)
	wet := surf < dew
	// Time spent below the dew point (condensing), if any.
	var wetS float64
	if t0 < dew {
		frac := (dew - cabinC) / (t0 - cabinC)
		wetS = -tauS * math.Log(frac)
		if wetS > warmupS {
			wetS = warmupS
		}
	}
	return Result{
		Test:   fmt.Sprintf("cold-soak condensation (cabin %.0f °C / %.0f%% RH)", cabinC, rh*100),
		Pass:   !wet,
		Metric: surf, Limit: dew, Units: "°C (surface vs dew point)",
		Detail: fmt.Sprintf("soak %.0f °C → surface %.1f °C after %.0f s; dew point %.1f °C; %.0f s below it",
			t0, surf, warmupS, dew, wetS),
	}, nil
}
