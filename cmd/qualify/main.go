// Command qualify runs the virtual environmental qualification campaign
// (the paper's §IV.A test block: 9 g acceleration, DO-160 C1 random
// vibration, climatic, thermal shock — plus the extended shock-pulse and
// sine-sweep pair) on an article described in JSON.
//
// Usage:
//
//	qualify -demo > article.json      # print an editable example
//	qualify -article article.json
//	qualify -article article.json -extended
//	qualify -article article.json -workers 4 -keep-going
//
// The campaign is one envtest.Campaign.Run (or Extended.Run with
// -extended) call under the robust.Options built from -workers and
// -keep-going.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"aeropack/internal/cosee"
	"aeropack/internal/envtest"
	"aeropack/internal/obs"
	"aeropack/internal/obs/obshttp"
	"aeropack/internal/report"
	"aeropack/internal/robust"
)

// articleFile is the JSON schema of a unit under test.  The thermal model
// is selected by name: "seb-lhp" and "seb-bare" bind to the COSEE models;
// "linear" uses a fixed thermal resistance.
type articleFile struct {
	Name        string  `json:"name"`
	MassKg      float64 `json:"mass_kg"`
	MountFnHz   float64 `json:"mount_fn_hz"`
	DampingZeta float64 `json:"damping_zeta"`
	MountAreaM2 float64 `json:"mount_area_m2"`
	MountYield  float64 `json:"mount_yield_pa"`

	BoardSpanMM float64 `json:"board_span_mm"`
	BoardThkMM  float64 `json:"board_thk_mm"`
	CompLenMM   float64 `json:"comp_len_mm"`
	FatigueExpB float64 `json:"fatigue_exp_b"`

	PowerW       float64 `json:"power_w"`
	ThermalModel string  `json:"thermal_model"` // seb-lhp | seb-bare | linear
	ThetaKW      float64 `json:"theta_k_per_w"` // for linear
	MaxPointC    float64 `json:"max_point_c"`
	MinStartC    float64 `json:"min_start_c"`

	ShockCycles   int     `json:"shock_cycles"`
	JointDTFactor float64 `json:"joint_dt_factor"`
}

const demoArticle = `{
  "name": "SEB+seat (HP/LHP kit)",
  "mass_kg": 3.5, "mount_fn_hz": 180, "damping_zeta": 0.05,
  "mount_area_m2": 1e-4, "mount_yield_pa": 8e7,
  "board_span_mm": 250, "board_thk_mm": 2, "comp_len_mm": 25,
  "fatigue_exp_b": 6.4,
  "power_w": 60, "thermal_model": "seb-lhp",
  "max_point_c": 105, "min_start_c": -40,
  "shock_cycles": 100, "joint_dt_factor": 0.5
}
`

func main() {
	articlePath := flag.String("article", "", "path to the article JSON")
	demo := flag.Bool("demo", false, "print an example article and exit")
	extended := flag.Bool("extended", false, "add the DO-160 shock-pulse and sine-sweep tests")
	workers := flag.Int("workers", 1, "worker goroutines for the campaign (1 = serial, 0 = GOMAXPROCS); results are identical at any count")
	keepGoing := flag.Bool("keep-going", false, "survive per-test failures: errored tests show as ERROR rows, every other test still runs; exit code 4 on a partial campaign")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON file of the run's spans (chrome://tracing)")
	metricsPath := flag.String("metrics", "", "write an aeropack-metrics/v1 JSON snapshot of the run's counters/gauges/histograms")
	eventsPath := flag.String("events", "", "write an aeropack-events/v1 JSON dump of the flight-recorder ring on exit")
	serveAddr := flag.String("serve", "", "serve the live ops endpoint (/metrics /healthz /events /progress) on this address while the campaign runs, e.g. :8080")
	flag.Parse()

	if *demo {
		fmt.Print(demoArticle)
		return
	}
	flush := obs.Setup(*tracePath, *metricsPath, *eventsPath)
	var ops *obshttp.Ops
	fail := func(code int, err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
		_ = ops.Close() // best effort on the error path; nil-safe
		if ferr := flush(); ferr != nil {
			fmt.Fprintln(os.Stderr, ferr)
		}
		os.Exit(code)
	}
	if *serveAddr != "" {
		var err error
		if ops, err = obshttp.EnableOps(*serveAddr); err != nil {
			fail(1, err)
		}
		fmt.Fprintf(os.Stderr, "qualify: ops endpoint listening on %s\n", ops.Addr())
	}
	if *articlePath == "" {
		fail(2, fmt.Errorf("qualify: provide -article <file> or -demo"))
	}
	raw, err := os.ReadFile(*articlePath)
	if err != nil {
		fail(1, err)
	}
	var af articleFile
	if err := json.Unmarshal(raw, &af); err != nil {
		fail(1, fmt.Errorf("qualify: parsing %s: %w", *articlePath, err))
	}
	article, err := buildArticle(&af)
	if err != nil {
		fail(1, err)
	}

	run := envtest.DefaultCampaign().Run
	if *extended {
		run = envtest.DefaultExtended().Run
	}
	results, pointErrs, err := run(article, robust.Options{Workers: *workers, KeepGoing: *keepGoing})
	if err != nil {
		fail(1, err)
	}
	for _, pe := range pointErrs {
		fmt.Fprintln(os.Stderr, "qualify: keep-going:", pe)
	}
	errored := make(map[int]bool, len(pointErrs))
	for _, pe := range pointErrs {
		errored[pe.Index] = true
	}
	t := report.NewTable("Qualification — "+article.Name, "test", "result", "margin", "detail")
	for i, r := range results {
		mark := "PASS"
		switch {
		case errored[i]:
			mark = "ERROR"
		case !r.Pass:
			mark = "FAIL"
		}
		t.AddRow(r.Test, mark, fmt.Sprintf("%+.0f%%", r.Margin()*100), r.Detail)
	}
	fmt.Print(t.String())
	if len(pointErrs) > 0 {
		fmt.Fprintf(os.Stderr, "qualify: keep-going: %d test(s) errored, results are partial\n", len(pointErrs))
		fail(4, nil)
	}
	if !envtest.AllPass(results) {
		fail(3, nil)
	}
	fmt.Println("ALL TESTS PASSED")
	if err := ops.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "qualify: closing ops endpoint:", err)
	}
	if err := flush(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func buildArticle(af *articleFile) (*envtest.Article, error) {
	a := &envtest.Article{
		Name:        af.Name,
		MassKg:      af.MassKg,
		MountFnHz:   af.MountFnHz,
		DampingZeta: af.DampingZeta,
		MountArea:   af.MountAreaM2,
		MountYield:  af.MountYield,
		BoardSpan:   af.BoardSpanMM * 1e-3,
		BoardThk:    af.BoardThkMM * 1e-3,
		CompLen:     af.CompLenMM * 1e-3,
		CompConst:   1.0,
		PosFactor:   1.0,
		FatigueExpB: af.FatigueExpB,
		PowerW:      af.PowerW,
		MaxPointC:   af.MaxPointC,
		MinStartC:   af.MinStartC,

		ShockCyclesRequired: af.ShockCycles,
		JointDTFactor:       af.JointDTFactor,
	}
	switch af.ThermalModel {
	case "seb-lhp", "":
		cfg := cosee.Config{UseLHP: true}
		a.DeltaTAt = coseeHook(cfg)
	case "seb-bare":
		a.DeltaTAt = coseeHook(cosee.Config{})
	case "linear":
		if af.ThetaKW <= 0 {
			return nil, fmt.Errorf("qualify: linear model needs theta_k_per_w > 0")
		}
		theta := af.ThetaKW
		a.DeltaTAt = func(p float64) (float64, error) { return p * theta, nil }
	default:
		return nil, fmt.Errorf("qualify: unknown thermal model %q", af.ThermalModel)
	}
	return a, nil
}

func coseeHook(cfg cosee.Config) func(float64) (float64, error) {
	return func(p float64) (float64, error) {
		// Solve mutates its receiver (Defaults fills zero fields) and the
		// parallel campaign calls this hook concurrently, so work on a
		// private copy.
		c := cfg
		pt, err := c.Solve(p)
		if err != nil {
			return 0, err
		}
		return pt.DeltaTK, nil
	}
}
