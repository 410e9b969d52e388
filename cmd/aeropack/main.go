// Command aeropack runs the packaging co-design flow (the paper's Fig. 1 /
// Fig. 4 procedure) on a board specification: level-1 cooling-technology
// screen, level-2 finite-volume board model, level-3 component junction
// temperatures, and the parallel mechanical design, ending with the margin
// findings.
//
// Usage:
//
//	aeropack -spec board.json     # run a JSON specification
//	aeropack -demo                # print a ready-to-edit example spec
//	aeropack -spec board.json -doc
//	aeropack -spec board.json -keep-going
//	aeropack -equipment rack.json # multi-board equipment study
//	aeropack -equipment-demo
//
// A -spec run is one core.StudyOpts call whose robust.Options carry
// -keep-going.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"aeropack/internal/compact"
	"aeropack/internal/core"
	"aeropack/internal/obs"
	"aeropack/internal/obs/obshttp"
	"aeropack/internal/report"
	"aeropack/internal/robust"
	"aeropack/internal/units"
)

// specFile is the JSON schema of a design study.
type specFile struct {
	Name        string  `json:"name"`
	LengthMM    float64 `json:"length_mm"`
	WidthMM     float64 `json:"width_mm"`
	ThicknessMM float64 `json:"thickness_mm"`
	Copper      struct {
		Layers   int     `json:"layers"`
		Oz       float64 `json:"oz"`
		Coverage float64 `json:"coverage"`
	} `json:"copper"`
	Cooling      string  `json:"cooling"` // "conduction", "forced-air", "free-convection"
	RailC        float64 `json:"rail_c"`
	ChannelH     float64 `json:"channel_h_w_m2k"`
	ChannelAirC  float64 `json:"channel_air_c"`
	TargetModeHz float64 `json:"target_mode_hz"`
	MassLoad     float64 `json:"mass_load_kg_m2"`
	Components   []struct {
		RefDes  string  `json:"refdes"`
		Package string  `json:"package"`
		PowerW  float64 `json:"power_w"`
		XMM     float64 `json:"x_mm"`
		YMM     float64 `json:"y_mm"`
	} `json:"components"`
	Envelope struct {
		LMM float64 `json:"l_mm"`
		WMM float64 `json:"w_mm"`
		HMM float64 `json:"h_mm"`
	} `json:"envelope"`
}

// equipmentFile is the JSON schema of a multi-board equipment study.
type equipmentFile struct {
	Name       string  `json:"name"`
	InletAirC  float64 `json:"inlet_air_c"`
	FlowDerate float64 `json:"flow_derate"`
	Envelope   struct {
		LMM float64 `json:"l_mm"`
		WMM float64 `json:"w_mm"`
		HMM float64 `json:"h_mm"`
	} `json:"envelope"`
	Boards []specFile `json:"boards"`
}

const demoEquipment = `{
  "name": "demo-mission-computer",
  "inlet_air_c": 40,
  "envelope": {"l_mm": 500, "w_mm": 300, "h_mm": 260},
  "boards": [
    {"name": "cpu-a", "length_mm": 160, "width_mm": 230, "thickness_mm": 2.4,
     "copper": {"layers": 12, "oz": 2, "coverage": 0.7},
     "cooling": "forced-air", "channel_h_w_m2k": 55, "mass_load_kg_m2": 3,
     "components": [
       {"refdes": "U1", "package": "FCBGA-CPU", "power_w": 7, "x_mm": 80, "y_mm": 115},
       {"refdes": "U2", "package": "BGA256", "power_w": 2, "x_mm": 40, "y_mm": 60}
     ]},
    {"name": "io", "length_mm": 160, "width_mm": 230, "thickness_mm": 2.4,
     "copper": {"layers": 12, "oz": 2, "coverage": 0.7},
     "cooling": "forced-air", "channel_h_w_m2k": 55, "mass_load_kg_m2": 3,
     "components": [
       {"refdes": "U1", "package": "QFP208", "power_w": 3, "x_mm": 80, "y_mm": 115}
     ]}
  ]
}
`

const demoSpec = `{
  "name": "demo-processing-module",
  "length_mm": 160, "width_mm": 230, "thickness_mm": 2.4,
  "copper": {"layers": 12, "oz": 2, "coverage": 0.7},
  "cooling": "conduction", "rail_c": 30,
  "target_mode_hz": 0, "mass_load_kg_m2": 3,
  "components": [
    {"refdes": "U1", "package": "FCBGA-CPU", "power_w": 6,   "x_mm": 80,  "y_mm": 115},
    {"refdes": "U2", "package": "BGA256",    "power_w": 2.5, "x_mm": 40,  "y_mm": 60},
    {"refdes": "U3", "package": "QFP208",    "power_w": 2,   "x_mm": 120, "y_mm": 170},
    {"refdes": "Q1", "package": "TO263",     "power_w": 1.5, "x_mm": 40,  "y_mm": 180}
  ],
  "envelope": {"l_mm": 400, "w_mm": 300, "h_mm": 200}
}
`

func main() {
	specPath := flag.String("spec", "", "path to the board specification JSON")
	demo := flag.Bool("demo", false, "print an example specification and exit")
	ambient := flag.Float64("screen-ambient", 71, "worst hot ambient for the level-1 screen, °C")
	doc := flag.Bool("doc", false, "emit the full packaging design document instead of the summary tables")
	keepGoing := flag.Bool("keep-going", false, "survive per-pass failures: errored passes print to stderr and the report keeps the surviving sections; exit code 4 on a partial study")
	eqPath := flag.String("equipment", "", "path to a multi-board equipment JSON")
	eqDemo := flag.Bool("equipment-demo", false, "print an example equipment spec and exit")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON file of the run's spans (chrome://tracing)")
	metricsPath := flag.String("metrics", "", "write an aeropack-metrics/v1 JSON snapshot of the run's counters/gauges/histograms")
	eventsPath := flag.String("events", "", "write an aeropack-events/v1 JSON dump of the flight-recorder ring on exit")
	serveAddr := flag.String("serve", "", "serve the live ops endpoint (/metrics /healthz /events /progress) on this address while the study runs, e.g. :8080")
	flag.Parse()

	if *demo {
		fmt.Print(demoSpec)
		return
	}
	if *eqDemo {
		fmt.Print(demoEquipment)
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
		fmt.Fprintf(os.Stderr, "aeropack: ops endpoint listening on %s\n", ops.Addr())
	}
	if *eqPath != "" {
		runEquipment(*eqPath, *ambient, fail)
		if err := ops.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "aeropack: closing ops endpoint:", err)
		}
		if err := flush(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *specPath == "" {
		fail(2, fmt.Errorf("aeropack: provide -spec <file>, -equipment <file>, -demo or -equipment-demo"))
	}
	raw, err := os.ReadFile(*specPath)
	if err != nil {
		fail(1, err)
	}
	var sf specFile
	if err := json.Unmarshal(raw, &sf); err != nil {
		fail(1, fmt.Errorf("aeropack: parsing %s: %w", *specPath, err))
	}
	board, env, err := buildDesign(&sf)
	if err != nil {
		fail(1, err)
	}
	screen := core.DefaultScreen(env)
	screen.AmbientC = *ambient

	rep, pointErrs, err := core.StudyOpts(board, screen, robust.Options{KeepGoing: *keepGoing})
	if err != nil {
		fail(1, err)
	}
	for _, pe := range pointErrs {
		fmt.Fprintln(os.Stderr, "aeropack: keep-going:", pe)
	}
	// Document dereferences every section, so a partial report falls back
	// to the nil-guarded summary tables.
	if *doc && rep.Level2 != nil && rep.Level3 != nil && rep.Mech != nil {
		fmt.Print(rep.Document())
	} else {
		printReport(rep)
	}
	if len(pointErrs) > 0 {
		fmt.Fprintf(os.Stderr, "aeropack: keep-going: %d pass(es) errored, report is partial\n", len(pointErrs))
		fail(4, nil)
	}
	if !rep.Feasible {
		fail(3, nil)
	}
	if err := ops.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "aeropack: closing ops endpoint:", err)
	}
	if err := flush(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func buildDesign(sf *specFile) (*core.BoardDesign, core.Envelope, error) {
	b := &core.BoardDesign{
		Name:         sf.Name,
		LengthM:      sf.LengthMM * 1e-3,
		WidthM:       sf.WidthMM * 1e-3,
		ThicknessM:   sf.ThicknessMM * 1e-3,
		CopperLayers: sf.Copper.Layers,
		CopperOz:     sf.Copper.Oz,
		CopperCover:  sf.Copper.Coverage,
		RailTempC:    sf.RailC,
		ChannelH:     sf.ChannelH,
		ChannelAirC:  sf.ChannelAirC,
		TargetModeHz: sf.TargetModeHz,
		MassLoadKgM2: sf.MassLoad,
	}
	switch sf.Cooling {
	case "conduction", "":
		b.EdgeCooling = core.ConductionCooled
	case "forced-air":
		b.EdgeCooling = core.ForcedAir
	case "free-convection":
		b.EdgeCooling = core.FreeConvection
	default:
		return nil, core.Envelope{}, fmt.Errorf("aeropack: unknown cooling %q", sf.Cooling)
	}
	for _, c := range sf.Components {
		pkg, err := compact.Get(c.Package)
		if err != nil {
			return nil, core.Envelope{}, err
		}
		b.Components = append(b.Components, &compact.Component{
			RefDes: c.RefDes, Pkg: pkg, Power: c.PowerW,
			X: c.XMM * 1e-3, Y: c.YMM * 1e-3,
		})
	}
	env := core.Envelope{L: sf.Envelope.LMM * 1e-3, W: sf.Envelope.WMM * 1e-3, H: sf.Envelope.HMM * 1e-3}
	return b, env, nil
}

func printReport(rep *core.Report) {
	t := report.NewTable("Design study — "+rep.Board.Name, "stage", "result")
	t.AddRow("level 1 (equipment)", fmt.Sprintf("%v: capacity %.0f W (margin %+.0f%%), flux %.1f W/cm² (margin %+.0f%%)",
		rep.Level1.Tech, rep.Level1.MaxPowerW, rep.Level1.PowerMargin*100,
		rep.Level1.MaxFluxWCm2, rep.Level1.FluxMargin*100))
	if rep.Level2 != nil {
		t.AddRow("level 2 (PCB)", fmt.Sprintf("board max %.1f °C, mean %.1f °C",
			rep.Level2.MaxBoardC, rep.Level2.MeanBoardC))
	} else {
		t.AddRow("level 2 (PCB)", "ERROR — see findings")
	}
	if rep.Level3 != nil {
		t.AddRow("level 3 (component)", fmt.Sprintf("worst junction %.1f °C, all pass: %v",
			rep.Level3.WorstC, rep.Level3.AllPass))
	} else {
		t.AddRow("level 3 (component)", "ERROR — see findings")
	}
	if rep.Mech != nil {
		t.AddRow("mechanical", fmt.Sprintf("fundamental %.0f Hz, response %.2f gRMS, fatigue OK: %v",
			rep.Mech.FundamentalHz, rep.Mech.ResponseGRMS, rep.Mech.FatigueOK))
	} else {
		t.AddRow("mechanical", "ERROR — see findings")
	}
	t.AddRow("verdict", fmt.Sprintf("feasible: %v", rep.Feasible))
	fmt.Print(t.String())

	if rep.Level3 != nil && len(rep.Level3.Margins) > 0 {
		t2 := report.NewTable("Junction margins (worst first)", "refdes", "Tj °C", "limit °C", "margin K")
		for _, m := range rep.Level3.Margins {
			t2.AddRow(m.RefDes, fmt.Sprintf("%.1f", units.KToC(m.Tj)),
				fmt.Sprintf("%.1f", units.KToC(m.MaxTj)), fmt.Sprintf("%.1f", m.Margin))
		}
		fmt.Print(t2.String())
	}
	if len(rep.Findings) > 0 {
		fmt.Println("Findings:")
		for _, f := range rep.Findings {
			fmt.Println("  -", f)
		}
	}
}

func runEquipment(path string, ambient float64, fail func(code int, err error)) {
	raw, err := os.ReadFile(path)
	if err != nil {
		fail(1, err)
	}
	var ef equipmentFile
	if err := json.Unmarshal(raw, &ef); err != nil {
		fail(1, fmt.Errorf("aeropack: parsing %s: %w", path, err))
	}
	eq := &core.Equipment{
		Name:       ef.Name,
		InletAirC:  ef.InletAirC,
		FlowDerate: ef.FlowDerate,
		Envelope: core.Envelope{
			L: ef.Envelope.LMM * 1e-3, W: ef.Envelope.WMM * 1e-3, H: ef.Envelope.HMM * 1e-3,
		},
	}
	for i := range ef.Boards {
		b, _, err := buildDesign(&ef.Boards[i])
		if err != nil {
			fail(1, err)
		}
		eq.Boards = append(eq.Boards, b)
	}
	screen := core.DefaultScreen(eq.Envelope)
	screen.AmbientC = ambient
	rep, err := core.StudyEquipment(eq, screen)
	if err != nil {
		fail(1, err)
	}
	fmt.Print(rep.Document())
	if !rep.Feasible {
		fail(3, nil)
	}
}
