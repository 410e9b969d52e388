package robust_test

// The golden robustness test behind the PR's acceptance criterion: an
// injected solver failure at one sweep point of the Fig. 10 experiment
// must yield a typed PointError for that point and bitwise-identical
// values for every other point — proving -keep-going degrades without
// disturbing the surviving physics.  It lives in package robust_test so
// it can drive the real cosee stack against the robust layer.

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"aeropack/internal/cosee"
	"aeropack/internal/materials"
	"aeropack/internal/robust"
)

var errInjected = errors.New("injected CG failure")

func TestGoldenFig10KeepGoingSweep(t *testing.T) {
	powers := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}
	const failIdx = 5 // the 60 W point

	clean := cosee.Config{UseLHP: true, Structure: materials.Al6061}
	want, _, err := clean.Sweep(powers, robust.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}

	faulty := cosee.Config{UseLHP: true, Structure: materials.Al6061,
		FaultFn: func(p float64) error {
			if p == powers[failIdx] {
				return errInjected
			}
			return nil
		}}
	got, errs, err := faulty.Sweep(powers, robust.Options{Workers: 4, KeepGoing: true})
	if err != nil {
		t.Fatalf("keep-going sweep returned a run error: %v", err)
	}

	if len(errs) != 1 {
		t.Fatalf("got %d point errors, want exactly 1: %v", len(errs), errs)
	}
	pe := errs[0]
	if pe.Index != failIdx {
		t.Errorf("PointError.Index = %d, want %d", pe.Index, failIdx)
	}
	if !errors.Is(pe, errInjected) {
		t.Errorf("PointError cause = %v, want the injected failure", pe.Err)
	}
	if want := fmt.Sprintf("P=%g W", powers[failIdx]); pe.Label != want {
		t.Errorf("PointError.Label = %q, want %q", pe.Label, want)
	}

	if len(got) != len(want) {
		t.Fatalf("result set has %d points, want %d", len(got), len(want))
	}
	for i := range want {
		if i == failIdx {
			if !math.IsNaN(got[i].DeltaTK) || !math.IsNaN(got[i].LHPPower) {
				t.Errorf("failed point %d = %+v, want NaN solved fields", i, got[i])
			}
			if got[i].PowerW != powers[i] {
				t.Errorf("failed point %d keeps PowerW %v, want %v", i, got[i].PowerW, powers[i])
			}
			continue
		}
		if math.Float64bits(got[i].DeltaTK) != math.Float64bits(want[i].DeltaTK) ||
			math.Float64bits(got[i].LHPPower) != math.Float64bits(want[i].LHPPower) ||
			math.Float64bits(got[i].PowerW) != math.Float64bits(want[i].PowerW) {
			t.Errorf("surviving point %d not bitwise-identical:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

func TestGoldenFig10KeepGoingSummary(t *testing.T) {
	want, _, err := cosee.RunFig10Opts(cosee.Fig10Options{
		Structure: materials.Al6061, Options: robust.Options{Workers: 4},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Only the LHP-power sub-study solves at exactly 100 W (the
	// capability bisections probe 1, 400 and fractional midpoints), so
	// this fault fails exactly one of the six sub-studies.
	got, errs, err := cosee.RunFig10Opts(cosee.Fig10Options{
		Structure: materials.Al6061,
		Options:   robust.Options{Workers: 4, KeepGoing: true},
		Fault: func(p float64) error {
			if p == 100 {
				return errInjected
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("keep-going Fig. 10 returned a run error: %v", err)
	}

	if len(errs) != 1 {
		t.Fatalf("got %d study errors, want exactly 1: %v", len(errs), errs)
	}
	if errs[0].Label != "lhp-power-100W" {
		t.Errorf("failed study = %q, want lhp-power-100W", errs[0].Label)
	}
	if !math.IsNaN(got.LHPPowerAt100W) {
		t.Errorf("LHPPowerAt100W = %v, want NaN", got.LHPPowerAt100W)
	}
	same := func(name string, g, w float64) {
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("%s = %v not bitwise-identical to clean run's %v", name, g, w)
		}
	}
	same("CapabilityNoLHP", got.CapabilityNoLHP, want.CapabilityNoLHP)
	same("CapabilityLHP", got.CapabilityLHP, want.CapabilityLHP)
	same("CapabilityTilt", got.CapabilityTilt, want.CapabilityTilt)
	same("ImprovementPct", got.ImprovementPct, want.ImprovementPct)
	same("DeltaTNoLHP40W", got.DeltaTNoLHP40W, want.DeltaTNoLHP40W)
	same("DeltaTLHP40W", got.DeltaTLHP40W, want.DeltaTLHP40W)
	same("CoolingAt40W", got.CoolingAt40W, want.CoolingAt40W)
}
