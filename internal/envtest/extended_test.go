package envtest

import (
	"strings"
	"testing"
)

func TestExtendedDefaults(t *testing.T) {
	e := DefaultExtended()
	if e.ShockPulseG != 6 || e.ShockPulseMs != 11 {
		t.Errorf("shock pulse defaults %v g / %v ms, want DO-160's 6/11", e.ShockPulseG, e.ShockPulseMs)
	}
	if e.SineAmpG != 1 || e.SineF0 != 10 || e.SineF1 != 2000 {
		t.Errorf("sweep defaults wrong: %+v", e)
	}
	// The embedded campaign keeps the paper's levels.
	if e.AccelG != 9 || e.VibCurve != "C1" {
		t.Error("extended campaign must embed the paper's levels")
	}
}

func TestExtendedSEBPassesAll(t *testing.T) {
	results, _, err := DefaultExtended().Run(sebArticle(), serial)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("expected 6 tests (4 paper + 2 extended), got %d", len(results))
	}
	if !AllPass(results) {
		for _, r := range results {
			if !r.Pass {
				t.Errorf("failed: %s — %s", r.Test, r.Detail)
			}
		}
	}
	// The extended pair appears at the end with SRS/sweep detail.
	if !strings.Contains(results[4].Test, "shock") || !strings.Contains(results[5].Test, "sweep") {
		t.Errorf("extended tests missing: %v, %v", results[4].Test, results[5].Test)
	}
	if !strings.Contains(results[4].Detail, "SRS") {
		t.Errorf("shock detail should quote the SRS: %s", results[4].Detail)
	}
}

func TestShockPulseFailsWeakMounts(t *testing.T) {
	a := sebArticle()
	a.MountArea = 2e-8
	r, err := DefaultExtended().RunShockPulse(a)
	if err != nil {
		t.Fatal(err)
	}
	if r.Pass {
		t.Error("tiny mounts should fail the shock pulse")
	}
}

func TestShockPulseSRSAmplification(t *testing.T) {
	// A mount tuned near the pulse's knee frequency (≈0.8/D ≈ 73 Hz for
	// 11 ms) sees an amplified SRS: its stress exceeds that of a stiff
	// 500 Hz mount where the SRS has settled to the input level.
	soft := sebArticle()
	soft.MountFnHz = 73
	stiff := sebArticle()
	stiff.MountFnHz = 800
	e := DefaultExtended()
	rs, err := e.RunShockPulse(soft)
	if err != nil {
		t.Fatal(err)
	}
	rh, err := e.RunShockPulse(stiff)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Metric <= rh.Metric {
		t.Errorf("knee-frequency mount should see higher shock load: %v vs %v", rs.Metric, rh.Metric)
	}
}

func TestSineSweepFailsUndamped(t *testing.T) {
	a := sebArticle()
	a.DampingZeta = 0.002 // Q = 250 at resonance
	a.BoardThk = 3.2e-3
	a.CompLen = 0.06
	a.MountFnHz = 60
	r, err := DefaultExtended().RunSineSweep(a)
	if err != nil {
		t.Fatal(err)
	}
	if r.Pass {
		t.Errorf("undamped resonance should fail the sweep: %s", r.Detail)
	}
}

func TestExtendedValidation(t *testing.T) {
	bad := sebArticle()
	bad.MassKg = -1
	if _, err := DefaultExtended().RunShockPulse(bad); err == nil {
		t.Error("invalid article should error")
	}
	if _, err := DefaultExtended().RunSineSweep(bad); err == nil {
		t.Error("invalid article should error")
	}
	if _, _, err := DefaultExtended().Run(bad, serial); err == nil {
		t.Error("invalid article should error")
	}
}

func TestDewPoint(t *testing.T) {
	// Handbook: 25 °C at 60% RH → dew point ≈ 16.7 °C.
	dew, err := DewPointC(25, 0.60)
	if err != nil {
		t.Fatal(err)
	}
	if dew < 16 || dew > 17.5 {
		t.Errorf("dew point = %v, want ≈16.7", dew)
	}
	// Saturated air: dew point equals the air temperature.
	dewSat, _ := DewPointC(20, 1.0)
	if dewSat < 19.9 || dewSat > 20.1 {
		t.Errorf("saturated dew point = %v, want 20", dewSat)
	}
	// Drier air → lower dew point.
	dewDry, _ := DewPointC(25, 0.2)
	if dewDry >= dew {
		t.Error("drier air must have a lower dew point")
	}
	if _, err := DewPointC(25, 0); err == nil {
		t.Error("zero RH should error")
	}
	if _, err := DewPointC(25, 1.5); err == nil {
		t.Error("RH > 1 should error")
	}
}

func TestRunCondensation(t *testing.T) {
	e := DefaultExtended()
	a := sebArticle()
	// A long warm-up (4 h) with a 20-minute time constant: the unit is
	// warm long before the check — dry.
	r, err := e.RunCondensation(a, 24, 0.6, 1200, 4*3600)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Pass {
		t.Errorf("fully warmed unit should be dry: %s", r.Detail)
	}
	// Power-on five minutes after boarding with a sluggish (2 h) chassis:
	// still below the dew point — condensation risk flagged.
	r, err = e.RunCondensation(a, 24, 0.6, 7200, 300)
	if err != nil {
		t.Fatal(err)
	}
	if r.Pass {
		t.Errorf("cold chassis at 5 min should still be wet: %s", r.Detail)
	}
	if r.Metric >= r.Limit {
		t.Error("failing case must show surface below dew point")
	}
	if _, err := e.RunCondensation(a, 24, 0.6, -1, 300); err == nil {
		t.Error("bad tau should error")
	}
	bad := sebArticle()
	bad.MassKg = -1
	if _, err := e.RunCondensation(bad, 24, 0.6, 1200, 3600); err == nil {
		t.Error("invalid article should error")
	}
}
