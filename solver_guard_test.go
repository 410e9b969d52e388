package aeropack_test

import (
	"os"
	"testing"

	"aeropack/internal/cosee"
	"aeropack/internal/materials"
	"aeropack/internal/obs"
	"aeropack/internal/parallel"
	"aeropack/internal/robust"
	"aeropack/internal/thermal"
)

// TestSolverPerfGuard pins the two headline properties of the sparse
// solver overhaul so they cannot silently regress:
//
//  1. An E5 Fig. 10 sweep runs in a bounded CG iteration budget.  The
//     pre-overhaul baseline was ~11,260 iterations per sweep (unprec-
//     onditioned CG restarted cold at every Picard pass and bisection
//     probe); IC(0) + solver-setup reuse + warm starts bring it to
//     ~1,000.  The guard sits at 1,100 — a 10× improvement floor.
//     Iteration counts are deterministic, so this sub-test is exact.
//  2. The parallel steady solve is not slower than the serial one when
//     it actually fans out.  Wall-clock comparisons are only meaningful
//     with real cores, so the timing assertion tightens with the
//     resolved worker count: at workers == 1 the parallel path is the
//     serial path plus scheduling overhead and just gets a generous
//     noise bound.
//
// The test costs a few seconds of benchmarking, so it only runs when
// AEROPACK_SOLVER_GUARD=1 (verify.sh sets it in the solver smoke step).
func TestSolverPerfGuard(t *testing.T) {
	if os.Getenv("AEROPACK_SOLVER_GUARD") != "1" {
		t.Skip("set AEROPACK_SOLVER_GUARD=1 to run the solver performance guard")
	}

	t.Run("E5IterationBudget", func(t *testing.T) {
		reg := obs.NewRegistry()
		prev := obs.SetDefault(reg)
		defer obs.SetDefault(prev)
		if _, _, err := cosee.RunFig10Opts(cosee.Fig10Options{
			Structure: materials.Al6061, Options: robust.Options{Workers: 1},
		}); err != nil {
			t.Fatal(err)
		}
		iters := reg.Counter("linalg_solver_iterations_total").Value()
		t.Logf("Fig. 10 sweep: %d CG iterations (pre-overhaul baseline ~11260)", iters)
		if iters > 1100 {
			t.Errorf("Fig. 10 sweep took %d CG iterations, budget 1100", iters)
		}
		if iters == 0 {
			t.Error("no solver iterations recorded — is the sweep still running the iterative solver?")
		}
	})

	t.Run("ParallelNotSlower", func(t *testing.T) {
		m := bigSolverModel()
		w := parallel.Workers(0)
		serial := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := m.SolveSteady(nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		par := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := m.SolveSteady(&thermal.SolveOptions{Parallel: true, Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
		st, pt := serial.NsPerOp(), par.NsPerOp()
		t.Logf("serial %d ns/op, parallel %d ns/op at %d workers", st, pt, w)
		if w > 1 {
			if pt >= st {
				t.Errorf("parallel solve (%d ns/op) not faster than serial (%d ns/op) at %d workers", pt, st, w)
			}
		} else if float64(pt) > 1.2*float64(st) {
			// Single worker: same code path plus dispatch; anything past
			// noise means the parallel plumbing itself regressed.
			t.Errorf("parallel solve (%d ns/op) more than 1.2× serial (%d ns/op) at 1 worker", pt, st)
		}
	})
}
