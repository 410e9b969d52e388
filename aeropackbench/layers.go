package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"aeropack/internal/core"
	"aeropack/internal/cosee"
	"aeropack/internal/envtest"
	"aeropack/internal/materials"
	"aeropack/internal/obs"
	"aeropack/internal/serve"
	"aeropack/internal/units"
)

// The traced per-layer suite (-trace 1).  It is the same for every
// -workload: each per-layer metric has one home workload (README.md), and
// the suite measures every metric on its home workload's seeded inputs,
// so every traced run reports the whole layer breakdown.
//
//  1. Counted passes against one aeropackd: a fixed number of board-cold
//     and cosee-mixed requests from two closed-loop clients, with
//     /metrics scraped before and after.  The request sets are fixed, so
//     the counter deltas per operation repeat exactly for a seed.
//  2. Served misses: a few further bodies sent one at a time to the idle
//     daemon, for serve.miss_overhead_ms and the bitwise comparisons.
//  3. In-process calls of each layer's public functions on the same
//     inputs, first untraced and then inside spans of one obs.Trace,
//     which is exported with the Chrome-trace writer and read back.
const (
	boardCounted      = boardBlock // one stratified block: four boards per cooling mode
	coseeCounted      = 400        // 100 new bodies and 300 hot-set repeats
	coseeProbeBodies  = 4          // served-miss probes: two sweeps, two qualifications
	modalProbeBoards  = 4          // one per edge condition
	coseeEngineRounds = 5
	hitRounds         = 10
)

// scrapeDelta is the counter change across a pass.
type scrapeDelta map[string]float64

func delta(before, after map[string]float64) scrapeDelta {
	d := make(scrapeDelta)
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

func (d scrapeDelta) add(o scrapeDelta) {
	for k, v := range o {
		d[k] += v
	}
}

// pass runs a counted closed-loop pass with a scrape and a CPU reading
// before and after.
func pass(d *daemon, next func(i int) job, n int) (*loadResult, scrapeDelta, time.Duration, error) {
	before, err := d.scrape()
	if err != nil {
		return nil, nil, 0, err
	}
	cpu0, err := cpuTime(d.cmd.Process.Pid)
	if err != nil {
		return nil, nil, 0, err
	}
	lr := closedLoop(d, next, n, 0)
	cpu1, err := cpuTime(d.cmd.Process.Pid)
	if err != nil {
		return nil, nil, 0, err
	}
	after, err := d.scrape()
	if err != nil {
		return nil, nil, 0, err
	}
	return lr, delta(before, after), cpu1 - cpu0, nil
}

// servedProbe is one body sent alone to the idle daemon.
type servedProbe struct {
	req     *serve.StudyRequest
	latency float64 // ms
	resp    *serve.StudyResponse
}

func runLayers(cfg *config) (*result, error) {
	res := newResult()
	client := newClient()
	defer client.CloseIdleConnections()
	d, err := startDaemon(cfg.bin, client)
	if err != nil {
		return nil, err
	}
	defer d.kill()

	// ---- 1a. board-cold counted pass, one cooling mode at a time so the
	// daemon's CPU can be attributed to each mode.
	s := send(d, newJob(warmBoardBody(cfg.seed)), -1)
	res.count(1, boolInt(s.err != nil))
	boardDelta := make(scrapeDelta)
	modeCPU := make([]time.Duration, len(coolingModes))
	modeAssemblies := make([]float64, len(coolingModes))
	for m := range coolingModes {
		var idx []int
		for i := m; i < boardCounted; i += len(coolingModes) {
			idx = append(idx, i)
		}
		lr, dl, cpu, err := pass(d, func(i int) job { return newJob(boardBody(cfg.seed, idx[i])) }, len(idx))
		if err != nil {
			return nil, err
		}
		res.count(len(lr.samples), lr.failures())
		boardDelta.add(dl)
		modeCPU[m] = cpu
		modeAssemblies[m] = dl["thermal_assembly_seconds_count"] / float64(len(idx))
	}

	// ---- 1b. cosee-mixed counted pass on a warm hot set.
	beforeWarm, err := d.scrape()
	if err != nil {
		return nil, err
	}
	hot, failed, err := warmHotSet(d, cfg.seed)
	if err != nil {
		return nil, err
	}
	res.count(len(hot), failed)
	afterWarm, err := d.scrape()
	if err != nil {
		return nil, err
	}
	coseeLR, coseeDelta, _, err := pass(d, func(i int) job { return coseeJob(cfg.seed, i, hot) }, coseeCounted)
	if err != nil {
		return nil, err
	}
	res.count(len(coseeLR.samples), coseeLR.failures())

	// ---- 2. served misses on the idle daemon.
	var boardProbes, coseeProbes []servedProbe
	sendProbe := func(req *serve.StudyRequest) servedProbe {
		s := send(d, newJob(req), -1)
		res.count(1, boolInt(s.err != nil))
		return servedProbe{req: req, latency: ms(s.latency), resp: s.resp}
	}
	for m := range coolingModes {
		boardProbes = append(boardProbes, sendProbe(boardBody(cfg.seed, boardCounted+m)))
	}
	for j := 0; j < coseeProbeBodies; j++ {
		coseeProbes = append(coseeProbes, sendProbe(coseeMissBody(cfg.seed, coseeCounted/coseeBlock+j)))
	}
	if err := d.stop(); err != nil {
		return nil, err
	}

	// ---- Scrape-derived metrics.
	boardOps := float64(boardCounted)
	coseeOps := float64(coseeCounted)
	res.set("thermal.assemblies_per_op", boardDelta["thermal_assembly_seconds_count"]/boardOps, "1/op")
	res.set("thermal.assembly_ms_per_op", boardDelta["thermal_assembly_seconds_sum"]*1e3/boardOps, "ms/op")
	res.set("thermal.picard_passes_per_fc_board", modeAssemblies[2], "1/op")
	totalCPU := modeCPU[0] + modeCPU[1] + modeCPU[2]
	res.set("board-cold.free_conv_cpu_frac", float64(modeCPU[2])/float64(max(totalCPU, 1)), "ratio")
	for _, w := range []struct {
		name string
		d    scrapeDelta
		ops  float64
	}{{"board-cold", boardDelta, boardOps}, {"cosee-mixed", coseeDelta, coseeOps}} {
		res.set("linalg.cg_solves_per_op."+w.name, w.d["linalg_cg_solves_total"]/w.ops, "1/op")
		res.set("linalg.cg_iters_per_op."+w.name, w.d["linalg_solver_iterations_total"]/w.ops, "1/op")
	}
	// Board studies never go through the pool's queue (the level-2 path
	// records no wait), so the queue wait is cosee-mixed's alone.
	res.set("parallel.queue_wait_ms_per_op", coseeDelta["parallel_queue_wait_seconds_sum"]*1e3/coseeOps, "ms/op")
	res.set("serve.cache_hit_frac", coseeDelta["serve_cache_hits_total"]/coseeDelta["serve_requests_total"], "ratio")
	res.set("cosee.solves_per_op", coseeDelta["cosee_solves_total"]/coseeOps, "1/op")
	cached := afterWarm["serve_cache_misses_total"] - beforeWarm["serve_cache_misses_total"] + coseeDelta["serve_cache_misses_total"]
	res.set("cosee-mixed.distinct_bodies_cached", cached, "count")
	both := make(scrapeDelta)
	both.add(boardDelta)
	both.add(coseeDelta)
	ops := boardOps + coseeOps
	res.set("serve.rejected_frac", both["serve_rejected_total"]/both["serve_requests_total"], "ratio")
	lookups := both["linalg_setup_result_hits_total"] + both["linalg_setup_result_misses_total"]
	res.set("linalg.setup_result_hit_frac", both["linalg_setup_result_hits_total"]/math.Max(lookups, 1), "ratio")
	res.set("linalg.prec_reuse_per_op", both["linalg_setup_prec_reuse_total"]/ops, "1/op")
	res.set("robust.fallbacks_per_op", both["solver_fallbacks"]/ops, "1/op")
	res.set("robust.relaxed_per_op", both["robust_relaxed_total"]/ops, "1/op")
	res.set("robust.ic0_degraded_per_op", (both["robust_ic0_degraded_total"]+both["thermal_ic0_degraded_total"])/ops, "1/op")
	res.note("board-cold counted pass: server CPU by mode (ms): conduction %.0f, forced-air %.0f, free-convection %.0f; assemblies per board %s",
		ms(modeCPU[0]), ms(modeCPU[1]), ms(modeCPU[2]), fmtList(modeAssemblies))

	// ---- 3. in-process layer calls, untraced then traced.
	tr := obs.NewTrace()
	if err := boardLayers(res, tr, boardProbes); err != nil {
		return nil, err
	}
	if err := coseeLayers(res, tr, coseeProbes, hot); err != nil {
		return nil, err
	}
	if err := modalLayers(cfg, res, tr); err != nil {
		return nil, err
	}
	var rows, nnz int
	if _, err := traced(tr, "bench.linalg", func() (err error) {
		rows, nnz, err = kernelProbe()
		return err
	}); err != nil {
		return nil, err
	}
	res.count(1, 0)

	path := filepath.Join(cfg.out, "aeropackbench-trace.json")
	events, err := writeAndReadTrace(tr, path)
	if err != nil {
		return nil, err
	}
	res.note("Chrome trace: %s (%d spans)", path, len(events))
	return res, traceMetrics(res, events, coseeProbes, rows, nnz)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// traced runs f with tr installed as the process tracer, inside a root
// span called name, and returns f's wall time.
func traced(tr *obs.Trace, name string, f func() error) (time.Duration, error) {
	obs.SetTracer(tr)
	defer obs.SetTracer(nil)
	sp := obs.Start(nil, name)
	t0 := time.Now()
	err := f()
	dt := time.Since(t0)
	sp.End()
	return dt, err
}

func untraced(f func() error) (time.Duration, error) {
	t0 := time.Now()
	err := f()
	return time.Since(t0), err
}

// alternate runs step(i, true) untraced and then step(i, false) traced,
// inside a root span called name, for i < n, and returns the summed
// times of each kind.  Alternating keeps warm-up and machine drift from
// biasing the difference, which is the tracing overhead.
func alternate(tr *obs.Trace, name string, n int, step func(i int, untraced bool) error) (plain, withSpans time.Duration, err error) {
	for i := 0; i < n; i++ {
		dt, err := untraced(func() error { return step(i, true) })
		if err != nil {
			return 0, 0, err
		}
		plain += dt
		if dt, err = traced(tr, name, func() error { return step(i, false) }); err != nil {
			return 0, 0, err
		}
		withSpans += dt
	}
	return plain, withSpans, nil
}

// sameBits reports whether two float lists are bitwise identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// studyNumbers flattens the numbers a study response carries; level 1
// only when the response has it.
func studyNumbers(rep *core.Report, level1 bool) []float64 {
	var v []float64
	if level1 {
		v = append(v, rep.Level1.MaxPowerW, rep.Level1.PowerMargin, rep.Level1.FluxMargin)
	}
	v = append(v, rep.Level2.MaxBoardC, rep.Level2.MeanBoardC, rep.Level3.WorstC,
		rep.Mech.FundamentalHz, rep.Mech.ResponseGRMS, rep.Mech.Z3SigmaUm, rep.Mech.SteinbergUm)
	for _, m := range rep.Level3.Margins {
		v = append(v, units.KToC(m.Tj), m.Margin)
	}
	return v
}

func servedStudyNumbers(s *serve.StudyResultJSON) []float64 {
	var v []float64
	if s.Level1 != nil {
		v = append(v, s.Level1.MaxPowerW, s.Level1.PowerMargin, s.Level1.FluxMargin)
	}
	v = append(v, s.Level2.MaxBoardC, s.Level2.MeanBoardC, s.Level3.WorstC,
		s.Mech.FundamentalHz, s.Mech.ResponseGRMS, s.Mech.Z3SigmaUm, s.Mech.SteinbergUm)
	for _, m := range s.Level3.Margins {
		v = append(v, m.TjC, m.MarginK)
	}
	return v
}

// boardLayers traces core.Study on the served board-cold probes and
// checks the served numbers are ones the in-process engine computes for
// the same inputs, bitwise.
func boardLayers(res *result, tr *obs.Trace, probes []servedProbe) error {
	local := make([][]studyRun, len(probes))
	plain, withSpans, err := alternate(tr, "bench.board-cold", len(probes), func(i int, _ bool) error {
		local[i] = append(local[i], runStudy(probes[i]))
		return nil
	})
	if err != nil {
		return err
	}
	res.set("obs.trace_overhead_frac.board-cold", 1-float64(plain)/float64(withSpans), "ratio")
	for i, p := range probes {
		res.count(1, boolInt(compareStudy(p, local[i]) != nil))
	}
	return nil
}

// studyRun is one in-process core.Study of a probe's design.
type studyRun struct {
	rep *core.Report
	err error
}

func runStudy(p servedProbe) studyRun {
	d, screen, err := boardDesign(p.req.Study)
	if err != nil {
		return studyRun{err: err}
	}
	rep, err := core.Study(d, screen)
	return studyRun{rep, err}
}

// studyReruns bounds the extra untimed in-process studies compareStudy
// makes before it calls a served answer different.
const studyReruns = 32

// compareStudy checks that the served study numbers are bitwise equal to
// those of an in-process core.Study on the same design.  core.Study is
// not bitwise reproducible from call to call: thermal.Network.SolveSteady
// seeds level 3 with a mean summed over a Go map, so its last bits
// follow the map's iteration order.  The served answer therefore has to
// equal one of the in-process runs, not the first; the runs already made
// count, and up to studyReruns more are made until one matches.
func compareStudy(p servedProbe, runs []studyRun) error {
	if p.resp == nil || p.resp.Study == nil {
		return fmt.Errorf("no served answer to compare with")
	}
	served := servedStudyNumbers(p.resp.Study)
	level1 := p.resp.Study.Level1 != nil
	closest := int64(math.MaxInt64)
	for i, n := 0, len(runs)+studyReruns; i < n; i++ {
		if i >= len(runs) {
			runs = append(runs, runStudy(p))
		}
		r := runs[i]
		if r.err != nil {
			return r.err
		}
		local := studyNumbers(r.rep, level1)
		if sameBits(local, served) {
			if i > 0 {
				fmt.Printf("board %s: the served numbers matched in-process run %d bitwise\n", p.req.Study.Name, i+1)
			}
			return nil
		}
		closest = min(closest, maxULP(local, served))
	}
	fmt.Printf("board %s: none of %d in-process runs equals the served numbers; the closest differs by up to %d ulp\n",
		p.req.Study.Name, len(runs), closest)
	return fmt.Errorf("in-process study differs from the served answer")
}

// maxULP is the largest distance in units in the last place between
// paired values of the same sign.
func maxULP(a, b []float64) int64 {
	if len(a) != len(b) {
		return math.MaxInt64
	}
	var worst int64
	for i := range a {
		d := int64(math.Float64bits(a[i])) - int64(math.Float64bits(b[i]))
		worst = max(worst, d, -d)
	}
	return worst
}

// coseeLayers traces the cosee and envtest engines on the default fig10
// body and the served-miss probes, compares them with the served answers
// bitwise, and times cache hits through an in-process serve.Server.
func coseeLayers(res *result, tr *obs.Trace, probes []servedProbe, hot []job) error {
	defaultFig10, err := checkResponse(hot[0].req, hot[0].body, http.StatusOK, hot[0].want)
	if err != nil {
		return err
	}
	engines := func(check bool) error {
		fig := func() error {
			// The default fig10 body: aluminium structure, default workers.
			sum, _, err := cosee.RunFig10Opts(cosee.Fig10Options{Structure: materials.Al6061})
			if check {
				res.count(1, boolInt(compareFig10(defaultFig10.Fig10, sum, err) != nil))
			}
			return nil
		}
		if err := spanned("bench.cosee.fig10", fig); err != nil {
			return err
		}
		for _, p := range probes {
			name := "bench.cosee.sweep"
			f := func() error {
				cfgC, err := coseeConfig(&p.req.Sweep.CoseeSpec)
				if err != nil {
					return err
				}
				pts, err := cfgC.SweepParallel(p.req.Sweep.PowersW, 0)
				if check {
					res.count(1, boolInt(compareSweep(p, pts, err) != nil))
				}
				return nil
			}
			if p.req.Kind == "qualification" {
				name = "bench.envtest.campaign"
				f = func() error {
					rs, err := runQualification(p.req.Qualification)
					if check {
						res.count(1, boolInt(compareQualification(p, rs, err) != nil))
					}
					return nil
				}
			}
			if err := spanned(name, f); err != nil {
				return err
			}
		}
		return nil
	}
	// The engines take about a millisecond, so warm them up with the
	// checked round first.
	if err := engines(true); err != nil {
		return err
	}
	plain, withSpans, err := alternate(tr, "bench.cosee-mixed", coseeEngineRounds, func(int, bool) error { return engines(false) })
	if err != nil {
		return err
	}
	res.set("obs.trace_overhead_frac.cosee-mixed", 1-float64(plain)/float64(withSpans), "ratio")

	// Cache hits through Server.ServeHTTP: fill an in-process server with
	// the hot set, then time hits.  Each hit must replay the bytes
	// aeropackd served for the same body.
	srv, err := serve.NewServer(serve.Options{Registry: obs.NewRegistry()})
	if err != nil {
		return err
	}
	defer srv.Close()
	call := func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/studies", bytes.NewReader(body)))
		return rec
	}
	for _, j := range hot {
		call(j.body)
	}
	bad := 0
	_, err = traced(tr, "bench.serve", func() error {
		for r := 0; r < hitRounds; r++ {
			for _, j := range hot {
				sp := obs.Start(nil, "bench.serve.hit")
				rec := call(j.body)
				sp.End()
				if rec.Code != http.StatusOK || rec.Header().Get("X-Aeropack-Cache") != "hit" || !bytes.Equal(rec.Body.Bytes(), j.want) {
					bad++
				}
			}
		}
		return nil
	})
	res.count(hitRounds*len(hot), bad)
	return err
}

// spanned runs f inside a root span called name (a no-op span while no
// tracer is installed).
func spanned(name string, f func() error) error {
	sp := obs.Start(nil, name)
	defer sp.End()
	return f()
}

func compareFig10(f *serve.Fig10Result, s *cosee.Fig10Summary, err error) error {
	if err != nil {
		return err
	}
	served := []float64{*f.CapabilityNoLHPW, *f.CapabilityLHPW, *f.CapabilityTiltW, *f.ImprovementPct,
		*f.DeltaTNoLHP40WK, *f.DeltaTLHP40WK, *f.CoolingAt40WK, *f.LHPPowerAt100WW}
	local := []float64{s.CapabilityNoLHP, s.CapabilityLHP, s.CapabilityTilt, s.ImprovementPct,
		s.DeltaTNoLHP40W, s.DeltaTLHP40W, s.CoolingAt40W, s.LHPPowerAt100W}
	if !sameBits(served, local) {
		fmt.Println("fig10: in-process summary differs from the served one")
		return fmt.Errorf("fig10 differs")
	}
	return nil
}

func compareSweep(p servedProbe, pts []cosee.Point, err error) error {
	if err != nil {
		return err
	}
	if p.resp == nil {
		return fmt.Errorf("no served answer to compare with")
	}
	var served, local []float64
	for i, sp := range p.resp.Sweep {
		served = append(served, *sp.DeltaTK, *sp.LHPPowerW)
		local = append(local, pts[i].DeltaTK, pts[i].LHPPower)
	}
	if len(pts) != len(p.resp.Sweep) || !sameBits(served, local) {
		fmt.Println("sweep: in-process points differ from the served ones")
		return fmt.Errorf("sweep differs")
	}
	return nil
}

func compareQualification(p servedProbe, rs []envtest.Result, err error) error {
	if err != nil {
		return err
	}
	if p.resp == nil || len(p.resp.Qualification) != len(rs) {
		return fmt.Errorf("no matching served answer to compare with")
	}
	for i, r := range rs {
		q := p.resp.Qualification[i]
		if q.Test != r.Test || q.Pass != r.Pass || !sameBits([]float64{q.Metric, q.Limit}, []float64{r.Metric, r.Limit}) {
			fmt.Println("qualification: in-process results differ from the served ones")
			return fmt.Errorf("qualification differs")
		}
	}
	return nil
}

// modalLayers traces detailed-modal studies and the plate FEM alone on
// one board per edge condition.
func modalLayers(cfg *config, res *result, tr *obs.Trace) error {
	fundamentals := make([]float64, modalProbeBoards)
	plain, withSpans, err := alternate(tr, "bench.modal", modalProbeBoards, func(i int, keep bool) error {
		b, edge := modalBoard(cfg.seed, i)
		d, screen, err := modalDesign(b, edge)
		if err != nil {
			return err
		}
		rep, err := core.Study(d, screen)
		if err := checkModal(d, rep, err); err != nil {
			res.count(1, 1)
			fmt.Fprintf(os.Stderr, "aeropackbench: modal board %d: %v\n", i, err)
			return nil
		}
		res.count(1, 0)
		if keep {
			fundamentals[i] = rep.Mech.FundamentalHz
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.set("obs.trace_overhead_frac.modal", 1-float64(plain)/float64(withSpans), "ratio")

	// The plate FEM alone must give the fundamental the study reported.
	_, err = traced(tr, "bench.mech", func() error {
		for i := 0; i < modalProbeBoards; i++ {
			b, edge := modalBoard(cfg.seed, i)
			d, _, err := modalDesign(b, edge)
			if err != nil {
				return err
			}
			sp := obs.Start(nil, "bench.mech.PlateFEM")
			fem, err := plateFEM(d)
			var f float64
			if err == nil {
				f, err = fem.FundamentalHz()
			}
			sp.End()
			ok := err == nil && math.Float64bits(f) == math.Float64bits(fundamentals[i])
			res.count(1, boolInt(!ok))
		}
		return nil
	})
	return err
}

// traceMetrics derives the per-layer times from the exported trace.
func traceMetrics(res *result, events []traceEvent, coseeProbes []servedProbe, rows, nnz int) error {
	bc, err := sectionOf(events, "bench.board-cold")
	if err != nil {
		return err
	}
	md, err := sectionOf(events, "bench.modal")
	if err != nil {
		return err
	}
	cs, err := sectionOf(events, "bench.cosee-mixed")
	if err != nil {
		return err
	}
	sv, err := sectionOf(events, "bench.serve")
	if err != nil {
		return err
	}
	mc, err := sectionOf(events, "bench.mech")
	if err != nil {
		return err
	}
	kn, err := sectionOf(events, "bench.linalg")
	if err != nil {
		return err
	}

	for _, w := range []struct {
		name string
		s    *section
	}{{"board-cold", bc}, {"modal", md}} {
		n := float64(len(w.s.durations("core.Study")))
		res.set("core.study_ms."+w.name, mean(w.s.durations("core.Study")), "ms")
		res.set("core.level1_ms."+w.name, sum(w.s.durations("core.Level1"))/n, "ms")
		res.set("core.level3_ms."+w.name, sum(w.s.durations("core.Level3"))/n, "ms")
		cov := w.s.layerCoverage()
		res.set("obs.layer_coverage_frac."+w.name, cov, "ratio")
		res.count(1, boolInt(cov < minLayerCoverage))
		res.note("%s layer spans cover %.4f of traced wall (floor %.2f)", w.name, cov, minLayerCoverage)
		printBreakdown(res, w.name, w.s)
	}
	nb := float64(len(bc.durations("core.Study")))
	res.set("core.level2_ms", sum(bc.durations("core.Level2"))/nb, "ms")
	res.set("thermal.assemble_self_ms", bc.selfMS("thermal.assemble")/nb, "ms")
	res.set("thermal.linsolve_self_ms", bc.selfMS("thermal.linSolve")/nb, "ms")
	nm := float64(len(md.durations("core.Study")))
	res.set("core.study_self_ms", (sum(md.durations("core.Study"))-sum(md.durations("core.Level1"))-
		sum(md.durations("core.Level2"))-sum(md.durations("core.Level3")))/nm, "ms")
	res.set("mech.plate_modal_ms", mean(mc.durations("bench.mech.PlateFEM")), "ms")

	res.set("cosee.fig10_ms", median(cs.durations("bench.cosee.fig10")), "ms")
	res.set("cosee.sweep_ms", median(cs.durations("bench.cosee.sweep")), "ms")
	res.set("envtest.campaign_ms", median(cs.durations("bench.envtest.campaign")), "ms")
	res.set("serve.hit_ms", median(sv.durations("bench.serve.hit")), "ms")

	// Served miss latency minus the traced engine time of the same body;
	// the engine spans repeat the probes in order, once per round.
	engine := make([]float64, len(coseeProbes))
	k := 0
	for _, e := range cs.events {
		if e.Name == "bench.cosee.sweep" || e.Name == "bench.envtest.campaign" {
			engine[k%len(coseeProbes)] += e.Dur / 1e3 / coseeEngineRounds
			k++
		}
	}
	if k != len(coseeProbes)*coseeEngineRounds {
		return fmt.Errorf("trace holds %d cosee engine spans, want %d", k, len(coseeProbes)*coseeEngineRounds)
	}
	overhead := 0.0
	for i, p := range coseeProbes {
		overhead += (p.latency - engine[i]) / float64(len(coseeProbes))
	}
	res.set("serve.miss_overhead_ms", overhead, "ms")

	res.set("linalg.to_csr_ms", median(kn.durations("bench.linalg.ToCSR")), "ms")
	res.set("linalg.ic0_setup_ms", median(kn.durations("bench.linalg.NewICPrec")), "ms")
	res.set("linalg.ic0_apply_us", 1e3*median(kn.durations("bench.linalg.ICPrec.Apply")), "us")
	res.set("linalg.spmv_us", 1e3*median(kn.durations("bench.linalg.CSR.MulVec")), "us")
	res.set("linalg.cg_ms", median(kn.durations("bench.linalg.CGOpt")), "ms")
	res.set("linalg.spmv_bytes_computed", spmvBytes(rows, nnz), "B")
	return nil
}

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

// printBreakdown notes the self time per span name of a section.
func printBreakdown(res *result, name string, s *section) {
	by := s.selfByName()
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return by[names[a]] > by[names[b]] })
	res.note("%s traced wall %.1f ms; self time by span:", name, s.wall/1e3)
	for _, n := range names {
		res.note("  %-34s %10.2f ms  %5.1f %%", n, by[n], 100*by[n]*1e3/s.wall)
	}
}
