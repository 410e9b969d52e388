// Command cosee reproduces the paper's Fig. 10 experiment from the
// command line: the seat-electronic-box ΔT-versus-power curves without
// LHP, with LHP horizontal and with LHP at a chosen tilt, plus the
// headline capability summary.
//
// Usage:
//
//	cosee [-structure Al6061|CarbonComposite] [-tilt 22] [-pmax 110] [-step 10]
//	      [-csv] [-workers 1] [-keep-going]
//	      [-trace trace.json] [-metrics metrics.json] [-events events.json]
//	      [-serve :8080]
//
// The three curves are (*cosee.Config).Sweep calls and the summary one
// cosee.RunFig10Opts call, all under the same robust.Options built from
// -workers and -keep-going.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"aeropack/internal/cosee"
	"aeropack/internal/materials"
	"aeropack/internal/obs"
	"aeropack/internal/obs/obshttp"
	"aeropack/internal/report"
	"aeropack/internal/robust"
)

func main() {
	structure := flag.String("structure", "Al6061", "seat structural material (Al6061 or CarbonComposite)")
	tilt := flag.Float64("tilt", 22, "tilt angle for the third configuration, degrees")
	pmax := flag.Float64("pmax", 110, "maximum SEB power for the sweep, W")
	step := flag.Float64("step", 10, "power step, W")
	csv := flag.Bool("csv", false, "emit the sweep as CSV (power, dT per configuration) for plotting")
	workers := flag.Int("workers", 1, "worker goroutines for sweeps (1 = serial, 0 = GOMAXPROCS); results are identical at any count")
	keepGoing := flag.Bool("keep-going", false, "survive per-point solver failures: failed points print to stderr and show NaN, all other points are unchanged; exit code 4 on a partial run")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON file of the run's spans (chrome://tracing)")
	metricsPath := flag.String("metrics", "", "write an aeropack-metrics/v1 JSON snapshot of the run's counters/gauges/histograms")
	eventsPath := flag.String("events", "", "write an aeropack-events/v1 JSON dump of the flight-recorder ring on exit")
	serveAddr := flag.String("serve", "", "serve the live ops endpoint (/metrics /healthz /events /progress) on this address while the run executes, e.g. :8080")
	flag.Parse()

	flush := obs.Setup(*tracePath, *metricsPath, *eventsPath)
	var ops *obshttp.Ops
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		_ = ops.Close() // best effort on the error path; nil-safe
		if ferr := flush(); ferr != nil {
			fmt.Fprintln(os.Stderr, ferr)
		}
		os.Exit(1)
	}
	if *serveAddr != "" {
		var err error
		if ops, err = obshttp.EnableOps(*serveAddr); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "cosee: ops endpoint listening on %s\n", ops.Addr())
	}

	mat, err := materials.Get(*structure)
	if err != nil {
		fail(err)
	}
	if *pmax <= 0 || *step <= 0 {
		fail(fmt.Errorf("cosee: pmax and step must be positive"))
	}
	var powers []float64
	for p := *step; p <= *pmax+1e-9; p += *step {
		powers = append(powers, p)
	}

	// Every study runs under one robust.Options: workers == 1 is the
	// pool's serial path, and the output is identical at any count.  With
	// -keep-going a failed point is reported on stderr and kept as NaN in
	// the output instead of aborting; failures counts the points lost
	// that way.
	opts := robust.Options{Workers: *workers, KeepGoing: *keepGoing}
	failures := 0
	noteFailures := func(errs []*robust.PointError) {
		for _, pe := range errs {
			fmt.Fprintln(os.Stderr, "cosee: keep-going:", pe)
		}
		failures += len(errs)
	}
	sweep := func(cfg cosee.Config) ([]cosee.Point, error) {
		pts, errs, err := cfg.Sweep(powers, opts)
		noteFailures(errs)
		return pts, err
	}
	// exit joins the ops endpoint, flushes telemetry and terminates with
	// code 4 when -keep-going swallowed failures, 0 on a clean run.
	exit := func() {
		if err := ops.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "cosee: closing ops endpoint:", err)
		}
		if err := flush(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if failures > 0 {
			fmt.Fprintf(os.Stderr, "cosee: keep-going: %d point(s) failed, results are partial\n", failures)
			os.Exit(4)
		}
	}
	configs := []struct {
		name string
		cfg  cosee.Config
	}{
		{"without LHP", cosee.Config{Structure: mat}},
		{"with LHP (horizontal)", cosee.Config{UseLHP: true, Structure: mat}},
		{fmt.Sprintf("with LHP (%.0f° tilt)", *tilt), cosee.Config{UseLHP: true, TiltDeg: *tilt, Structure: mat}},
	}
	if *csv {
		fmt.Printf("power_w")
		for _, c := range configs {
			fmt.Printf(",dT_%s", strings.ReplaceAll(c.name, " ", "_"))
		}
		fmt.Println()
		series := make([][]cosee.Point, len(configs))
		for i, c := range configs {
			pts, err := sweep(c.cfg)
			if err != nil {
				fail(err)
			}
			series[i] = pts
		}
		for row := range powers {
			fmt.Printf("%.1f", powers[row])
			for i := range configs {
				fmt.Printf(",%.3f", series[i][row].DeltaTK)
			}
			fmt.Println()
		}
		exit()
		return
	}
	for _, c := range configs {
		pts, err := sweep(c.cfg)
		if err != nil {
			fail(err)
		}
		s := &report.Series{Name: "Fig. 10 — " + c.name,
			XLabel: "SEB power (W)", YLabel: "Tpcb − Tair (K)"}
		for _, p := range pts {
			s.X = append(s.X, p.PowerW)
			s.Y = append(s.Y, p.DeltaTK)
		}
		fmt.Print(s.String())
	}

	sum, errs, err := cosee.RunFig10Opts(cosee.Fig10Options{Structure: mat, Options: opts})
	if err != nil {
		fail(err)
	}
	noteFailures(errs)
	t := report.NewTable("Headline summary ("+mat.Name+")", "quantity", "value")
	t.AddRow("capability without LHP @ΔT=60K", fmt.Sprintf("%.1f W", sum.CapabilityNoLHP))
	t.AddRow("capability with LHP @ΔT=60K", fmt.Sprintf("%.1f W", sum.CapabilityLHP))
	t.AddRow("capability at tilt", fmt.Sprintf("%.1f W", sum.CapabilityTilt))
	t.AddRow("improvement", fmt.Sprintf("%+.0f%%", sum.ImprovementPct))
	t.AddRow("PCB cooling at 40 W", fmt.Sprintf("%.1f K", sum.CoolingAt40W))
	t.AddRow("LHP power at 100 W SEB", fmt.Sprintf("%.1f W", sum.LHPPowerAt100W))
	fmt.Print(t.String())
	exit()
}
