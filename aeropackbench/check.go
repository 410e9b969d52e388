package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"aeropack/internal/serve"
)

// checkResponse validates one served answer: status 200, the response
// schema and kind, request_sha256 equal to the SHA-256 of the body that
// was sent, no partial results, every value finite and the kind's shape
// complete.  It returns the decoded response for callers that compare
// it further.
func checkResponse(req *serve.StudyRequest, body []byte, status int, resp []byte) (*serve.StudyResponse, error) {
	if status != 200 {
		return nil, fmt.Errorf("status %d: %s", status, firstLine(resp))
	}
	dec := json.NewDecoder(bytes.NewReader(resp))
	dec.DisallowUnknownFields()
	var r serve.StudyResponse
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("decoding response: %v", err)
	}
	sum := sha256.Sum256(body)
	switch {
	case r.Schema != serve.ResponseSchema:
		return nil, fmt.Errorf("schema %q", r.Schema)
	case r.Kind != req.Kind:
		return nil, fmt.Errorf("kind %q for a %q request", r.Kind, req.Kind)
	case r.RequestSHA256 != hex.EncodeToString(sum[:]):
		return nil, fmt.Errorf("request_sha256 %s is not the SHA-256 of the body", r.RequestSHA256)
	case r.Partial || len(r.Errors) > 0:
		return nil, fmt.Errorf("partial result with %d point errors", len(r.Errors))
	}
	var err error
	switch req.Kind {
	case "study":
		err = checkStudy(req.Study, r.Study)
	case "fig10":
		err = checkFig10(req, r.Fig10)
	case "sweep":
		err = checkSweep(req.Sweep, r.Sweep)
	case "qualification":
		err = checkQualification(r.Qualification)
	default:
		err = fmt.Errorf("unexpected kind %q", req.Kind)
	}
	if err != nil {
		return nil, err
	}
	return &r, nil
}

func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}

// finite reports whether every value is a finite number.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

func checkStudy(spec *serve.BoardSpec, s *serve.StudyResultJSON) error {
	if s == nil || s.Level2 == nil || s.Level3 == nil || s.Mech == nil {
		return fmt.Errorf("study result is missing a level")
	}
	// The wire drops an infeasible level-1 assessment of free convection
	// (the zero technology); every other board carries one.
	if s.Level1 == nil {
		if spec.Cooling != "free-convection" || s.Feasible {
			return fmt.Errorf("study result is missing level 1")
		}
	} else if !finite(s.Level1.MaxPowerW, s.Level1.PowerMargin, s.Level1.FluxMargin) {
		return fmt.Errorf("level 1 holds a non-finite value")
	}
	if !finite(s.Level2.MaxBoardC,
		s.Level2.MeanBoardC, s.Level3.WorstC, s.Mech.FundamentalHz, s.Mech.ResponseGRMS,
		s.Mech.Z3SigmaUm, s.Mech.SteinbergUm) {
		return fmt.Errorf("study result holds a non-finite value")
	}
	if s.Level2.MeanBoardC > s.Level2.MaxBoardC || s.Level2.MaxBoardC < -60 || s.Level2.MaxBoardC > 1000 {
		return fmt.Errorf("board temperatures out of range: mean %g °C, max %g °C", s.Level2.MeanBoardC, s.Level2.MaxBoardC)
	}
	if len(s.Level3.Margins) != len(spec.Components) {
		return fmt.Errorf("%d junction margins for %d components", len(s.Level3.Margins), len(spec.Components))
	}
	for _, m := range s.Level3.Margins {
		if !finite(m.TjC, m.MaxTjC, m.MarginK) || m.TjC < -60 || m.TjC > 1000 {
			return fmt.Errorf("junction %s: Tj %g °C out of range", m.RefDes, m.TjC)
		}
	}
	if s.Mech.FundamentalHz <= 0 {
		return fmt.Errorf("fundamental %g Hz", s.Mech.FundamentalHz)
	}
	return nil
}

// E5 bands for the default fig10 body, as the E5 benchmark checks them:
// ≈40 W without LHP, ≈100 W with, +150 %, 32 K cooling at 40 W, 58 W
// through the loops at 100 W and no tilt effect.
func checkFig10(req *serve.StudyRequest, f *serve.Fig10Result) error {
	if f == nil {
		return fmt.Errorf("fig10 result missing")
	}
	vals := []*float64{f.CapabilityNoLHPW, f.CapabilityLHPW, f.CapabilityTiltW, f.ImprovementPct,
		f.DeltaTNoLHP40WK, f.DeltaTLHP40WK, f.CoolingAt40WK, f.LHPPowerAt100WW}
	for _, v := range vals {
		if v == nil || !finite(*v) {
			return fmt.Errorf("fig10 summary has a null or non-finite field")
		}
	}
	if req.Fig10 != nil {
		return nil
	}
	bands := []struct {
		name   string
		v      float64
		lo, hi float64
	}{
		{"capability without LHP", *f.CapabilityNoLHPW, 34, 47},
		{"capability with LHP", *f.CapabilityLHPW, 88, 114},
		{"improvement", *f.ImprovementPct, 110, 190},
		{"cooling at 40 W", *f.CoolingAt40WK, 24, 40},
		{"LHP power at 100 W", *f.LHPPowerAt100WW, 45, 70},
		{"tilt effect", math.Abs(*f.CapabilityTiltW / *f.CapabilityLHPW - 1), -1, 0.05},
	}
	for _, b := range bands {
		if b.v <= b.lo || b.v >= b.hi {
			return fmt.Errorf("E5 band: %s = %g outside (%g, %g)", b.name, b.v, b.lo, b.hi)
		}
	}
	return nil
}

func checkSweep(spec *serve.SweepSpec, pts []serve.SweepPointJSON) error {
	if len(pts) != len(spec.PowersW) {
		return fmt.Errorf("%d sweep points for %d powers", len(pts), len(spec.PowersW))
	}
	for i, p := range pts {
		if !p.OK || p.DeltaTK == nil || p.LHPPowerW == nil || !finite(*p.DeltaTK, *p.LHPPowerW) {
			return fmt.Errorf("sweep point %d failed", i)
		}
		if math.Float64bits(p.PowerW) != math.Float64bits(spec.PowersW[i]) || *p.DeltaTK <= 0 {
			return fmt.Errorf("sweep point %d: power %g W, ΔT %g K", i, p.PowerW, *p.DeltaTK)
		}
	}
	return nil
}

func checkQualification(rs []serve.QualResultJSON) error {
	if len(rs) < 4 {
		return fmt.Errorf("%d qualification results, want at least the 4 campaign tests", len(rs))
	}
	for _, r := range rs {
		if r.Test == "" || !finite(r.Metric, r.Limit) {
			return fmt.Errorf("qualification result %q is incomplete", r.Test)
		}
	}
	return nil
}
