package obs_test

import (
	"testing"

	"aeropack/internal/cosee"
	"aeropack/internal/obs"
	"aeropack/internal/robust"
)

// TestObsGoldenFig10SpanTree pins the span tree produced by a fixed,
// serial Fig. 10 sweep.  The tree depends only on the computation —
// sweep length and the solver call graph — never on timing, so any
// change here is a real change to the instrumented control flow and
// should be reviewed (then reflected in DESIGN.md "Observability").
//
// The test swaps the process-global tracer, so it must not run in
// parallel with other tests.
func TestObsGoldenFig10SpanTree(t *testing.T) {
	run := func() string {
		tr := obs.NewTrace()
		prev := obs.SetTracer(tr)
		defer obs.SetTracer(prev)
		cfg := cosee.Config{UseLHP: true}
		if _, _, err := cfg.Sweep([]float64{20, 60}, robust.Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		return tr.TreeString()
	}
	got := run()
	want := "cosee.Sweep\n" +
		"  cosee.Solve\n" +
		"    thermal.Network.SolveSteady\n" +
		"  cosee.Solve\n" +
		"    thermal.Network.SolveSteady\n"
	if got != want {
		t.Errorf("span tree changed:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if again := run(); again != got {
		t.Errorf("span tree not deterministic:\n--- first ---\n%s--- second ---\n%s", got, again)
	}
}

// TestObsGoldenCapabilityMetrics runs a capability bisection with a
// fresh registry and checks the cross-package metric contract: the
// solver counters and the residual histogram that cmd/cosee's -metrics
// snapshot promises (see the acceptance criteria in ISSUE 3 and the
// DESIGN.md metric-name table).
func TestObsGoldenCapabilityMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	prev := obs.SetDefault(reg)
	defer obs.SetDefault(prev)

	cfg := cosee.Config{UseLHP: true}
	if _, err := cfg.CapabilityAt(60); err != nil {
		t.Fatal(err)
	}
	solves := reg.Counter("cosee_solves_total").Value()
	if solves < 3 {
		t.Errorf("cosee_solves_total = %d, want ≥3 (bisection bracket + iterations)", solves)
	}
	cg := reg.Counter("linalg_cg_solves_total").Value()
	if cg < solves {
		t.Errorf("linalg_cg_solves_total = %d, want ≥ %d (one linear solve per network solve)", cg, solves)
	}
	if iters := reg.Counter("linalg_solver_iterations_total").Value(); iters < cg {
		t.Errorf("linalg_solver_iterations_total = %d, want ≥ %d", iters, cg)
	}
	h := reg.Histogram("linalg_residual", nil)
	if h.Count() != cg {
		t.Errorf("linalg_residual count = %d, want %d (one sample per solve)", h.Count(), cg)
	}
	if h.Mean() <= 0 || h.Mean() > 1e-3 {
		t.Errorf("linalg_residual mean = %g, want a small positive converged residual", h.Mean())
	}
	if fails := reg.Counter("linalg_solver_failures_total").Value(); fails != 0 {
		t.Errorf("linalg_solver_failures_total = %d, want 0", fails)
	}
}

// TestObsGoldenSetupCacheMetrics pins the solver-setup counter contract
// from PR 7: a serial sweep with a repeated power point must reuse the
// shared preconditioner setup (linalg_setup_prec_reuse_total).
func TestObsGoldenSetupCacheMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	prev := obs.SetDefault(reg)
	defer obs.SetDefault(prev)

	cfg := cosee.Config{UseLHP: true}
	if _, _, err := cfg.Sweep([]float64{20, 20, 40}, robust.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if reuse := reg.Counter("linalg_setup_prec_reuse_total").Value(); reuse < 1 {
		t.Errorf("linalg_setup_prec_reuse_total = %d, want ≥1 (sweep points share the IC(0) setup)", reuse)
	}
	// A healthy network never degrades its preconditioner: both PR-7
	// degradation counters stay untouched (absent ≡ zero) on this run.
	snap := reg.Snapshot()
	for _, name := range []string{"robust_ic0_degraded_total", "thermal_ic0_degraded_total"} {
		if v, ok := snap.Counters[name]; ok && v != 0 {
			t.Errorf("%s = %d on a clean sweep, want 0", name, v)
		}
	}
}
