package thermal

import (
	"fmt"
	"math"
	"time"

	"aeropack/internal/linalg"
	"aeropack/internal/mesh"
	"aeropack/internal/obs"
	"aeropack/internal/parallel"
	"aeropack/internal/robust"
	"aeropack/internal/units"
)

// Result is a solved temperature field.
type Result struct {
	T []float64 // cell temperatures, K, indexed by Grid.Index
	g *mesh.Grid
	// Iterations performed by the linear solver on the last (outer) pass.
	Iterations int
	// OuterIterations counts radiation linearisation passes.
	OuterIterations int
}

// At returns the temperature of cell (i,j,k).
func (r *Result) At(i, j, k int) float64 { return r.T[r.g.Index(i, j, k)] }

// Max returns the hottest cell temperature.
func (r *Result) Max() float64 {
	m := math.Inf(-1)
	for _, t := range r.T {
		if t > m {
			m = t
		}
	}
	return m
}

// Min returns the coldest cell temperature.
func (r *Result) Min() float64 {
	m := math.Inf(1)
	for _, t := range r.T {
		if t < m {
			m = t
		}
	}
	return m
}

// Mean returns the volume-weighted mean temperature.
func (r *Result) Mean() float64 {
	sumVT, sumV := 0.0, 0.0
	for k := 0; k < r.g.Nz; k++ {
		for j := 0; j < r.g.Ny; j++ {
			for i := 0; i < r.g.Nx; i++ {
				v := r.g.CellVolume(i, j, k)
				sumVT += v * r.T[r.g.Index(i, j, k)]
				sumV += v
			}
		}
	}
	return sumVT / sumV
}

// MaxInBox returns the hottest temperature among cells with centroids in
// the physical box — used to probe component regions.
//
// Non-finite (NaN/Inf) inputs propagate to the result (nanguard: propagates).
func (r *Result) MaxInBox(x0, x1, y0, y1, z0, z1 float64) float64 {
	b := r.g.LocateBox(x0, x1, y0, y1, z0, z1)
	m := math.Inf(-1)
	for k := b.K0; k < b.K1; k++ {
		for j := b.J0; j < b.J1; j++ {
			for i := b.I0; i < b.I1; i++ {
				if t := r.T[r.g.Index(i, j, k)]; t > m {
					m = t
				}
			}
		}
	}
	return m
}

// MeanInBox returns the volume-weighted mean temperature in the box.
//
// Non-finite (NaN/Inf) inputs propagate to the result (nanguard: propagates).
func (r *Result) MeanInBox(x0, x1, y0, y1, z0, z1 float64) float64 {
	b := r.g.LocateBox(x0, x1, y0, y1, z0, z1)
	sumVT, sumV := 0.0, 0.0
	for k := b.K0; k < b.K1; k++ {
		for j := b.J0; j < b.J1; j++ {
			for i := b.I0; i < b.I1; i++ {
				v := r.g.CellVolume(i, j, k)
				sumVT += v * r.T[r.g.Index(i, j, k)]
				sumV += v
			}
		}
	}
	if sumV == 0 {
		return math.NaN()
	}
	return sumVT / sumV
}

// SolveOptions tunes the steady solver.
type SolveOptions struct {
	Tol        float64 // linear relative residual target (default 1e-9)
	MaxIter    int     // linear iteration cap (default 20·n^(2/3)+2000)
	MaxOuter   int     // radiation linearisation passes (default 12)
	RadTol     float64 // outer convergence on max |ΔT| in K (default 0.01)
	InitialT   float64 // initial field guess, K (default: mean of BC temps or 300)
	Solver     string  // "cg-ic0" (default), "cg", "cg-jacobi", "cg-ssor", "bicgstab"
	SSOROmega  float64 // relaxation for cg-ssor (default 1.2)
	ReturnLast bool    // if true, return best-effort field on non-convergence

	// Fallback routes the linear solve through the robust fallback
	// chain (robust.ChainFor): when the configured Solver fails, the
	// remaining rungs of the default ladder are tried before the solve
	// is reported failed.  A solve that succeeds on the first rung is
	// bitwise-identical to a non-Fallback solve, so enabling it only
	// changes behaviour on systems that would otherwise error out.
	Fallback bool

	// Parallel enables slab-parallel FV assembly and row-parallel
	// matrix-vector products.  Both paths are bitwise-identical to the
	// serial ones (see DESIGN.md "Parallel execution"), but serial stays
	// the default so the baseline remains trivially verifiable.
	Parallel bool
	// Workers bounds the worker count when Parallel is set; <= 0 means
	// runtime.GOMAXPROCS.
	Workers int

	// Span, when non-nil, is the parent under which the solver's
	// telemetry spans (thermal.SolveSteady → thermal.assemble /
	// thermal.linSolve) are recorded.  When nil, the solver span attaches
	// to the process-global tracer — and costs one atomic load when
	// tracing is disabled.
	Span *obs.Span
	// OnIteration is forwarded to the linear solver (see
	// linalg.IterOptions.OnIteration).  It fires for every inner
	// iteration of every outer pass; pair with linalg.ConvergenceLog to
	// capture convergence traces.
	OnIteration func(it int, residual float64)
	// Stop is forwarded to the linear solver (see
	// linalg.IterOptions.Stop).  When nil, a defaultSolveBudget
	// wall-clock guard is installed, so one near-singular operator in a
	// sweep aborts with linalg.ErrStopped instead of wedging the
	// campaign.
	Stop func() bool
}

// defaultSolveBudget is the wall-clock ceiling applied to linear solves
// whose caller supplies no Stop of its own.
const defaultSolveBudget = 5 * time.Minute

// defaultSolveStop returns a fresh wall-clock guard for one solve.
func defaultSolveStop() func() bool {
	deadline := time.Now().Add(defaultSolveBudget)
	return func() bool { return time.Now().After(deadline) }
}

// workerCount resolves the assembly/kernel worker budget: 1 unless
// Parallel is set.
func (o *SolveOptions) workerCount() int {
	if !o.Parallel {
		return 1
	}
	return parallel.Workers(o.Workers)
}

func (o *SolveOptions) defaults(n int) {
	if o.Tol <= 0 {
		o.Tol = 1e-9
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 20*int(math.Cbrt(float64(n))*math.Cbrt(float64(n))) + 2000
	}
	if o.MaxOuter <= 0 {
		o.MaxOuter = 40
	}
	if o.RadTol <= 0 {
		o.RadTol = 0.01
	}
	if o.Solver == "" {
		// IC(0)-preconditioned CG is the default: on the FV conduction
		// operators it converges in an order of magnitude fewer
		// iterations than Jacobi or SSOR, and breakdown degrades to
		// Jacobi inside linSolve rather than failing the solve.
		o.Solver = "cg-ic0"
	}
	if o.SSOROmega <= 0 || o.SSOROmega >= 2 {
		o.SSOROmega = 1.2
	}
}

// SolveSteady solves the steady conduction problem.  Radiative boundaries
// make the problem mildly nonlinear; they are handled by Picard iteration
// on a linearised radiation coefficient.
func (m *Model) SolveSteady(opts *SolveOptions) (*Result, error) {
	n := m.Grid.NumCells()
	var o SolveOptions
	if opts != nil {
		o = *opts
	}
	o.defaults(n)

	sp := obs.Start(o.Span, "thermal.SolveSteady")
	defer sp.End()
	sp.AttrInt("cells", n)
	sp.Attr("solver", o.Solver)

	// Initial surface-temperature estimate for radiation linearisation.
	Tinit := o.InitialT
	if Tinit <= 0 {
		Tinit = m.guessInitialT()
	}
	Tsurf := make([]float64, n)
	for i := range Tsurf {
		Tsurf[i] = Tinit
	}

	w := o.workerCount()
	res := &Result{g: m.Grid}
	// One private setup per call, shared by every Picard pass, and one
	// assembly: the first pass merges the full system, later passes
	// refill only what depends on the surface temperature.
	setup := linalg.NewSolverSetup()
	asm := &assembly{m: m, workers: w}
	var prev []float64
	for outer := 0; outer < o.MaxOuter; outer++ {
		res.OuterIterations = outer + 1
		a, b := asm.nextObs(Tsurf, sp)
		a.SetWorkers(w)
		t, stats, err := m.linSolve(a, b, prev, &o, setup, sp)
		res.Iterations = stats.Iterations
		if err != nil {
			if o.ReturnLast && t != nil {
				res.T = t
				return res, err
			}
			return nil, err
		}
		if !m.hasRadiation() {
			res.T = t
			return res, nil
		}
		// Outer convergence check on the radiating surface estimate, with
		// under-relaxation to damp the h_rad(T⁴) oscillation.
		maxDelta := 0.0
		for i := range t {
			if d := math.Abs(t[i] - Tsurf[i]); d > maxDelta {
				maxDelta = d
			}
			Tsurf[i] = 0.5*Tsurf[i] + 0.5*t[i]
		}
		prev = t
		if maxDelta < o.RadTol {
			res.T = t
			return res, nil
		}
	}
	if o.ReturnLast {
		res.T = Tsurf
		return res, fmt.Errorf("thermal: radiation linearisation did not converge in %d passes", o.MaxOuter)
	}
	return nil, fmt.Errorf("thermal: radiation linearisation did not converge in %d passes", o.MaxOuter)
}

func (m *Model) guessInitialT() float64 {
	sum, cnt := 0.0, 0
	for f := mesh.XMin; f < mesh.NumFaces; f++ {
		if bc := m.FaceBC[f]; bc.Kind != Adiabatic {
			sum += bc.T
			cnt++
		}
	}
	for _, p := range m.patches {
		if p.bc.Kind != Adiabatic {
			sum += p.bc.T
			cnt++
		}
	}
	if cnt == 0 {
		return 300
	}
	return sum / float64(cnt)
}

func (m *Model) hasRadiation() bool {
	for f := mesh.XMin; f < mesh.NumFaces; f++ {
		if m.FaceBC[f].Kind == ConvectionRadiation {
			return true
		}
	}
	for _, p := range m.patches {
		if p.bc.Kind == ConvectionRadiation {
			return true
		}
	}
	return false
}

// nextObs wraps next with a child span and the assembly metrics
// (thermal_matrix_nnz gauge, thermal_assembly_seconds histogram), one
// of each per pass whether the pass merged or refilled.  With telemetry
// disabled it reduces to the bare next call plus two nil checks.
func (s *assembly) nextObs(Tsurf []float64, parent *obs.Span) (*linalg.CSR, []float64) {
	sp := parent.Start("thermal.assemble")
	reg := obs.Default()
	if sp == nil && reg == nil {
		return s.next(Tsurf)
	}
	start := time.Now()
	a, b := s.next(Tsurf)
	nnz := len(a.Val)
	sp.AttrInt("nnz", nnz)
	sp.End()
	if reg != nil {
		reg.Gauge("thermal_matrix_nnz").Set(float64(nnz))
		reg.Histogram("thermal_assembly_seconds", assemblyBuckets).Observe(time.Since(start).Seconds())
	}
	return a, b
}

// assemblyBuckets span 1 µs to 1000 s, one decade per bucket.
var assemblyBuckets = obs.ExpBuckets(1e-6, 10, 9)

// precKindFor maps a SolveOptions.Solver name to the preconditioner kind
// its primary attempt uses.
func precKindFor(solver string) string {
	switch solver {
	case "cg-jacobi", "bicgstab":
		return "jacobi"
	case "cg-ssor":
		return "ssor"
	case "cg-ic0":
		return "ic0"
	default:
		return ""
	}
}

func (m *Model) linSolve(a *linalg.CSR, b []float64, x0 []float64, o *SolveOptions, setup *linalg.SolverSetup, parent *obs.Span) ([]float64, linalg.IterStats, error) {
	switch o.Solver {
	case "cg", "cg-jacobi", "cg-ssor", "cg-ic0", "bicgstab":
	default:
		return nil, linalg.IterStats{}, fmt.Errorf("thermal: unknown solver %q", o.Solver)
	}
	sp := parent.Start("thermal.linSolve")
	sp.Attr("solver", o.Solver)

	io := &linalg.IterOptions{Tol: o.Tol, MaxIter: o.MaxIter, OnIteration: o.OnIteration, Stop: o.Stop}
	if io.Stop == nil {
		io.Stop = defaultSolveStop()
	}
	if kind := precKindFor(o.Solver); kind != "" {
		prec, perr := setup.PrecFor(kind, a, o.SSOROmega)
		if perr != nil {
			// Only IC(0) can fail (breakdown through the whole shift
			// ladder); degrade to Jacobi — weaker, never failing.
			obs.Default().Counter("thermal_ic0_degraded_total").Add(1)
			if rec := obs.CurrentRecorder(); rec != nil {
				rec.Record("degrade", "thermal.linSolve",
					obs.Attr{Key: "from", Value: kind},
					obs.Attr{Key: "to", Value: "jacobi"},
					obs.Attr{Key: "cause", Value: perr.Error()})
			}
			sp.Attr("prec_degraded", "jacobi")
			prec, _ = setup.PrecFor("jacobi", a, o.SSOROmega)
		}
		io.Prec = prec
	}

	var (
		x     []float64
		stats linalg.IterStats
		err   error
	)
	if o.Fallback {
		chain := robust.ChainFor(o.Solver, o.SSOROmega, o.Tol, o.MaxIter)
		chain.Span = sp
		chain.OnIteration = o.OnIteration
		chain.Setup = setup
		var out robust.Outcome
		x, out, err = chain.Solve(a, b, x0)
		stats = out.Stats
		if out.Fallbacks > 0 {
			sp.AttrInt("fallbacks", out.Fallbacks)
		}
	} else if o.Solver == "bicgstab" {
		x, stats, err = linalg.BiCGSTABOpt(a, b, x0, io)
	} else {
		x, stats, err = linalg.CGOpt(a, b, x0, io)
	}
	sp.AttrInt("iterations", stats.Iterations)
	sp.AttrF("residual", stats.Residual)
	sp.End()
	if err != nil {
		// The wrapped linalg error already carries the iteration count
		// and final residual; prefixing only the failing solver name
		// keeps the figures from appearing twice in the message.
		err = fmt.Errorf("thermal: %s solve failed: %w", o.Solver, err)
	}
	return x, stats, err
}

// assembleInterior accumulates the interior-face conductances for the
// k-slab range [k0,k1): series half-cell resistances (harmonic mean),
// per direction.  Each cell owns its +x/+y/+z faces, so distinct k
// ranges touch disjoint faces and the slabs can be assembled into
// private builders concurrently.
//
//lint:hot
func (m *Model) assembleInterior(coo *linalg.COO, k0, k1 int) {
	g := m.Grid
	for k := k0; k < k1; k++ {
		for j := 0; j < g.Ny; j++ {
			for i := 0; i < g.Nx; i++ {
				idx := g.Index(i, j, k)
				// +x neighbour.
				if i+1 < g.Nx {
					nIdx := g.Index(i+1, j, k)
					area := g.DY(j) * g.DZ(k)
					k1x := kDir(m.matAt(i, j, k), 0)
					k2x := kDir(m.matAt(i+1, j, k), 0)
					gcond := faceConductance(area, g.DX(i), k1x, g.DX(i+1), k2x)
					addPair(coo, idx, nIdx, gcond)
				}
				// +y neighbour.
				if j+1 < g.Ny {
					nIdx := g.Index(i, j+1, k)
					area := g.DX(i) * g.DZ(k)
					k1y := kDir(m.matAt(i, j, k), 1)
					k2y := kDir(m.matAt(i, j+1, k), 1)
					gcond := faceConductance(area, g.DY(j), k1y, g.DY(j+1), k2y)
					addPair(coo, idx, nIdx, gcond)
				}
				// +z neighbour.
				if k+1 < g.Nz {
					nIdx := g.Index(i, j, k+1)
					area := g.DX(i) * g.DY(j)
					k1z := kDir(m.matAt(i, j, k), 2)
					k2z := kDir(m.matAt(i, j, k+1), 2)
					gcond := faceConductance(area, g.DZ(k), k1z, g.DZ(k+1), k2z)
					addPair(coo, idx, nIdx, gcond)
				}
			}
		}
	}
}

// assembly is the steady FV system A·T = b of one solve, kept across
// its Picard passes (or time steps).  Only the radiating boundary terms
// depend on the surface temperature, so only they change between passes.
//
// The first pass assembles every triplet — the interior-face
// conductances, then one diagonal term per boundary cell in face order —
// and merges them through a linalg.MergePlan, which is exactly
// COO.ToCSR.  A single-pass solve (conduction, forced air) does no more
// than that.  The first refill completes the plan: it lists the merged
// entries that sum a boundary term (the boundary cells' diagonals).
// Every refill then re-evaluates the boundary terms in their assembly
// order, re-sums those entries in the plan's order and leaves the rest
// of A as it is.  The triplet sequence and every summation order are
// unchanged, so the refilled A and the recomputed b are bitwise what a
// fresh assemble gives.
//
// A pass rebuilds from scratch instead when its boundary terms are not
// the recorded sequence (a term that COO.Add would drop as zero, or a
// film coefficient that falls to h ≤ 0) or when a refilled sum cancels
// to exactly zero; and every pass rebuilds while the last merge had to
// compact such a cancellation, since the structure then depends on the
// values.
type assembly struct {
	m       *Model
	workers int

	a *linalg.CSR // refilled in place; its RowPtr/ColIdx are the plan's
	b []float64

	plan  *linalg.MergePlan // nil when the last merge compacted a cancellation
	vals  []float64         // triplet values: nInt interior ones, then the boundary terms
	nInt  int
	cells []int32 // cell of each boundary term, in assembly order
	dirty []int32 // entries that sum a boundary term; nil until the first refill
}

// assemble builds the steady FV system for Tsurf from scratch.
func (m *Model) assemble(Tsurf []float64, workers int) (*linalg.CSR, []float64) {
	s := &assembly{m: m, workers: workers}
	return s.next(Tsurf)
}

// next returns the system for the surface temperature estimate Tsurf,
// refilling the previous pass's system when it can.  The returned matrix
// and vector are overwritten by the following call.
func (s *assembly) next(Tsurf []float64) (*linalg.CSR, []float64) {
	if s.a == nil || !s.refill(Tsurf) {
		s.build(Tsurf)
	}
	return s.a, s.b
}

// build assembles and merges every triplet.  With workers > 1 the
// interior-face loop is sharded by k-slab into private COO builders that
// are concatenated in slab order, which reproduces the serial triplet
// insertion sequence exactly — the assembled CSR is bitwise-identical at
// any worker count.
func (s *assembly) build(Tsurf []float64) {
	m := s.m
	g := m.Grid
	n := g.NumCells()
	coo := linalg.NewCOO(n, n)
	if s.workers > 1 && g.Nz > 1 {
		rs := parallel.Ranges(g.Nz, s.workers)
		parts := make([]*linalg.COO, len(rs))
		parallel.Blocks(g.Nz, s.workers, func(bi, lo, hi int) {
			part := linalg.NewCOO(n, n)
			m.assembleInterior(part, lo, hi)
			parts[bi] = part
		})
		for _, part := range parts {
			coo.AppendAll(part)
		}
	} else {
		m.assembleInterior(coo, 0, g.Nz)
	}
	s.nInt = coo.NNZ()

	s.b = make([]float64, n)
	s.cells = s.cells[:0]
	m.boundaryTerms(Tsurf, s.b, func(idx int, gTot float64) {
		coo.Add(idx, idx, gTot)
		if gTot != 0 { // COO.Add drops exact zeros
			s.cells = append(s.cells, int32(idx))
		}
	})
	m.addSources(s.b)

	s.plan = coo.Plan()
	s.vals = coo.Values()
	s.a = s.plan.Fill(s.vals)
	if s.a.NNZ() != s.plan.NNZ() {
		s.plan = nil
	}
	s.dirty = nil
}

// refill re-evaluates the boundary terms and sources at Tsurf and
// re-sums the entries they reach, reporting false when the pass must
// rebuild instead (see assembly).
func (s *assembly) refill(Tsurf []float64) bool {
	if s.plan == nil {
		return false
	}
	if s.dirty == nil {
		s.dirty = s.plan.EntriesFrom(s.nInt)
	}
	clear(s.b)
	k, same := 0, true
	s.m.boundaryTerms(Tsurf, s.b, func(idx int, gTot float64) {
		if gTot == 0 || !same { // COO.Add would drop the zero
			return
		}
		if k == len(s.cells) || int(s.cells[k]) != idx {
			same = false
			return
		}
		s.vals[s.nInt+k] = gTot
		k++
	})
	if !same || k != len(s.cells) {
		return false
	}
	s.m.addSources(s.b)
	return s.plan.Refill(s.a, s.vals, s.dirty)
}

// boundaryTerms evaluates the boundary conditions at the surface
// temperature estimate Tsurf (the radiation linearisation point), face by
// face in boundary-cell order.  For every cell with a non-adiabatic
// condition and a positive film coefficient it accumulates gTot·T∞ into b
// and passes the cell and its diagonal conductance gTot to add.
func (m *Model) boundaryTerms(Tsurf, b []float64, add func(idx int, gTot float64)) {
	g := m.Grid
	for f := mesh.XMin; f < mesh.NumFaces; f++ {
		face := f
		g.BoundaryCells(face, func(i, j, k int) {
			bc := m.bcAt(face, i, j, k)
			if bc.Kind == Adiabatic {
				return
			}
			idx := g.Index(i, j, k)
			area := g.FaceArea(face, i, j, k)
			mat := m.matAt(i, j, k)
			axis := faceAxis(face)
			kc := kDir(mat, axis)
			halfDist := 0.5 * cellExtent(g, face, i, j, k)
			rCond := halfDist / (kc * area)

			var gTot float64
			switch bc.Kind {
			case FixedT:
				gTot = 1 / rCond
			case Convection, ConvectionRadiation:
				h := bc.H
				if bc.Kind == ConvectionRadiation {
					eps := bc.Emiss
					if eps == 0 {
						eps = mat.Emiss
					}
					Ts := Tsurf[idx]
					Ta := bc.T
					h += eps * units.StefanBoltzmann * (Ts*Ts + Ta*Ta) * (Ts + Ta)
				}
				if h <= 0 {
					return
				}
				rFilm := 1 / (h * area)
				gTot = 1 / (rCond + rFilm)
			}
			add(idx, gTot)
			b[idx] += gTot * bc.T
		})
	}
}

// addSources spreads each volumetric source over its box by cell volume
// fraction, accumulating into b.
func (m *Model) addSources(b []float64) {
	g := m.Grid
	for _, s := range m.sources {
		vol := 0.0
		for k := s.box.K0; k < s.box.K1; k++ {
			for j := s.box.J0; j < s.box.J1; j++ {
				for i := s.box.I0; i < s.box.I1; i++ {
					vol += g.CellVolume(i, j, k)
				}
			}
		}
		if vol == 0 {
			continue
		}
		for k := s.box.K0; k < s.box.K1; k++ {
			for j := s.box.J0; j < s.box.J1; j++ {
				for i := s.box.I0; i < s.box.I1; i++ {
					b[g.Index(i, j, k)] += s.power * g.CellVolume(i, j, k) / vol
				}
			}
		}
	}
}

// addPair adds a symmetric conductance between cells a and b.
func addPair(coo *linalg.COO, a, b int, g float64) {
	coo.Add(a, a, g)
	coo.Add(b, b, g)
	coo.Add(a, b, -g)
	coo.Add(b, a, -g)
}

// faceConductance is the series (harmonic-mean) conductance between two
// adjacent cell centres through their shared face.
func faceConductance(area, d1, k1, d2, k2 float64) float64 {
	r := d1/(2*k1*area) + d2/(2*k2*area)
	return 1 / r
}

// faceAxis maps a face to its normal axis index.
func faceAxis(f mesh.Face) int {
	switch f {
	case mesh.XMin, mesh.XMax:
		return 0
	case mesh.YMin, mesh.YMax:
		return 1
	default:
		return 2
	}
}

// cellExtent returns the cell size normal to face f.
func cellExtent(g *mesh.Grid, f mesh.Face, i, j, k int) float64 {
	switch f {
	case mesh.XMin, mesh.XMax:
		return g.DX(i)
	case mesh.YMin, mesh.YMax:
		return g.DY(j)
	default:
		return g.DZ(k)
	}
}

// BoundaryHeatFlow returns the net heat flow (W, positive out of the
// domain) through face f for a solved field — used by energy-conservation
// checks and by exchanger sizing.
func (m *Model) BoundaryHeatFlow(res *Result, f mesh.Face) float64 {
	g := m.Grid
	total := 0.0
	g.BoundaryCells(f, func(i, j, k int) {
		bc := m.bcAt(f, i, j, k)
		if bc.Kind == Adiabatic {
			return
		}
		idx := g.Index(i, j, k)
		area := g.FaceArea(f, i, j, k)
		mat := m.matAt(i, j, k)
		kc := kDir(mat, faceAxis(f))
		halfDist := 0.5 * cellExtent(g, f, i, j, k)
		rCond := halfDist / (kc * area)
		var gTot float64
		switch bc.Kind {
		case FixedT:
			gTot = 1 / rCond
		case Convection, ConvectionRadiation:
			h := bc.H
			if bc.Kind == ConvectionRadiation {
				eps := bc.Emiss
				if eps == 0 {
					eps = mat.Emiss
				}
				Ts := res.T[idx]
				h += eps * units.StefanBoltzmann * (Ts*Ts + bc.T*bc.T) * (Ts + bc.T)
			}
			if h <= 0 {
				return
			}
			gTot = 1 / (rCond + 1/(h*area))
		}
		total += gTot * (res.T[idx] - bc.T)
	})
	return total
}

// TransientOptions tunes the transient solver.
type TransientOptions struct {
	SolveOptions
	Dt    float64 // time step, s (required)
	Steps int     // number of steps (required)
	// Snapshot, if non-nil, is called after every step with the time and
	// current field (aliased — copy if retained).
	Snapshot func(t float64, T []float64)
}

// SolveTransient integrates ∂(ρc_p T)/∂t = ∇·(k∇T) + q with implicit
// (backward) Euler from a uniform initial temperature T0.  Radiative BCs
// are linearised about the previous step's field.
func (m *Model) SolveTransient(T0 float64, opts *TransientOptions) (*Result, error) {
	if opts == nil || opts.Dt <= 0 || opts.Steps <= 0 {
		return nil, fmt.Errorf("thermal: transient solve requires positive Dt and Steps")
	}
	g := m.Grid
	n := g.NumCells()
	o := opts.SolveOptions
	o.defaults(n)

	T := make([]float64, n)
	for i := range T {
		T[i] = T0
	}
	// Per-cell heat capacity over the step, C/dt with C = rho·cp·V.
	capDt := make([]float64, n)
	for k := 0; k < g.Nz; k++ {
		for j := 0; j < g.Ny; j++ {
			for i := 0; i < g.Nx; i++ {
				mat := m.matAt(i, j, k)
				capDt[g.Index(i, j, k)] = mat.VolumetricHeatCapacity() * g.CellVolume(i, j, k) / opts.Dt
			}
		}
	}

	sp := obs.Start(o.Span, "thermal.SolveTransient")
	defer sp.End()
	sp.AttrInt("cells", n)
	sp.AttrInt("steps", opts.Steps)

	w := o.workerCount()
	res := &Result{g: g}
	// One private setup per call, shared by every time step, and one
	// assembly whose merge plan every step after the first refills.
	setup := linalg.NewSolverSetup()
	asm := &assembly{m: m, workers: w}
	rhs := make([]float64, n)
	t := 0.0
	for step := 0; step < opts.Steps; step++ {
		a, b := asm.nextObs(T, sp)
		// (C/dt + A)·T^{n+1} = C/dt·T^n + b
		sys := withCapacity(a, capDt)
		sys.SetWorkers(w)
		for i := range rhs {
			rhs[i] = b[i] + capDt[i]*T[i]
		}
		Tn, stats, err := m.linSolve(sys, rhs, T, &o, setup, sp)
		res.Iterations = stats.Iterations
		if err != nil {
			return nil, fmt.Errorf("thermal: transient step %d: %w", step, err)
		}
		copy(T, Tn)
		t += opts.Dt
		if opts.Snapshot != nil {
			opts.Snapshot(t, T)
		}
	}
	res.T = T
	res.OuterIterations = opts.Steps
	return res, nil
}

// withCapacity returns the backward-Euler step operator A + diag(c).
// Each diagonal then sums exactly two terms, a_ii and c_i, and floating
// addition is commutative, so adding c onto the stored diagonal is
// bitwise what merging A's entries and the c triplets through a COO
// gives, without the second sort.  The result shares A's RowPtr and
// ColIdx.  A row with no stored diagonal, or a diagonal that cancels to
// exactly zero, changes the structure: that step takes the COO merge
// instead.
func withCapacity(a *linalg.CSR, c []float64) *linalg.CSR {
	sys := &linalg.CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: a.RowPtr, ColIdx: a.ColIdx, Val: append([]float64(nil), a.Val...)}
	for i := 0; i < a.Rows; i++ {
		if c[i] == 0 { // COO.Add drops a zero term: the diagonal stays a_ii
			continue
		}
		d := -1
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if a.ColIdx[k] == i {
				d = k
				break
			}
		}
		if d < 0 {
			return withCapacityCOO(a, c)
		}
		sys.Val[d] += c[i]
		if sys.Val[d] == 0 { // exact cancellation check; zero compares are floatcmp-exempt
			return withCapacityCOO(a, c)
		}
	}
	return sys
}

// withCapacityCOO forms A + diag(c) by merging every stored entry of A
// and the c triplets through a COO: the general path withCapacity falls
// back to when the structure changes.
func withCapacityCOO(a *linalg.CSR, c []float64) *linalg.CSR {
	coo := linalg.NewCOO(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			coo.Add(i, a.ColIdx[k], a.Val[k])
		}
		coo.Add(i, i, c[i])
	}
	return coo.ToCSR()
}
