package main

import (
	"fmt"
	"os"
	"strconv"
	"time"

	"aeropack/internal/core"
)

// How many times a run sets the system up; setup_s is the median.
const (
	daemonSetups = 20
	modalSetups  = 9
)

// servedSegments is how many daemons share a served run's timed window,
// each serving an equal consecutive part of it; peak_rss_mb is the median
// of their peaks.  One daemon's VmHWM over a whole 45 s window depends
// on how the garbage collector's cycles happen to fall against the
// largest boards, and over ten seeds it spread by 0.26 of its median;
// over 9 s parts it spreads less, and a median of five steadies it.
const servedSegments = 5

// segment is what one daemon's part of a served window observed.
type segment struct {
	lr    *loadResult
	cpu   time.Duration // daemon CPU time over the part
	rssMB float64       // daemon VmHWM
	hits  int
}

// runServed measures board-cold or cosee-mixed against aeropackd.
func runServed(cfg *config) (*result, error) {
	res := newResult()
	client := newClient()
	defer client.CloseIdleConnections()

	var (
		ready, rss []float64
		lat        []float64
		cpu        time.Duration
		elapsed    time.Duration
		sent, hits int
		failed     int
	)
	for k := 0; k < servedSegments; k++ {
		// Set-up: exec → first /healthz 200, several times before each
		// part; the last daemon launched serves the part.
		var d *daemon
		for n := 0; n < daemonSetups/servedSegments; n++ {
			if d != nil {
				if err := d.stop(); err != nil {
					return nil, err
				}
			}
			var err error
			if d, err = startDaemon(cfg.bin, client); err != nil {
				return nil, err
			}
			ready = append(ready, d.ready.Seconds())
		}
		seg, err := serveSegment(cfg, res, d, sent, cfg.window/servedSegments)
		if err != nil {
			return nil, err
		}
		lat = append(lat, seg.lr.okLatencies()...)
		sent += len(seg.lr.samples)
		failed += seg.lr.failures()
		elapsed += seg.lr.elapsed
		cpu += seg.cpu
		rss = append(rss, seg.rssMB)
		hits += seg.hits
	}
	res.set("setup_s", median(ready), "s")
	latencyMetrics(res, lat, sent, failed, elapsed)
	res.set("peak_rss_mb", median(rss), "MiB")
	res.set("cpu_ms_per_op", float64(cpu)/float64(time.Millisecond)/float64(max(len(lat), 1)), "ms")
	if cfg.workload == "cosee-mixed" {
		res.note("cosee-mixed: %d of %d requests were cache hits", hits, sent)
	}
	res.note("setup_s launches (s): %s", fmtList(ready))
	res.note("peak_rss_mb per daemon (MiB): %s", fmtList(rss))
	return res, nil
}

// serveSegment warms daemon d up, drives it for one part of the window
// starting at request index first, and stops it.
func serveSegment(cfg *config, res *result, d *daemon, first int, window time.Duration) (*segment, error) {
	defer d.kill()
	// Untimed warm-up: board-cold sends one study outside its sequence;
	// cosee-mixed fills the cache with the hot set.
	next := func(i int) job { return newJob(boardBody(cfg.seed, first+i)) }
	if cfg.workload == "cosee-mixed" {
		hot, failed, err := warmHotSet(d, cfg.seed)
		if err != nil {
			return nil, err
		}
		res.count(len(hot), failed)
		next = func(i int) job { return coseeJob(cfg.seed, first+i, hot) }
	} else {
		s := send(d, newJob(warmBoardBody(cfg.seed)), -1)
		res.count(1, boolInt(s.err != nil))
	}

	pid := d.cmd.Process.Pid
	cpu0, err := cpuTime(pid)
	if err != nil {
		return nil, err
	}
	lr := closedLoop(d, next, 0, window)
	cpu1, err := cpuTime(pid)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(strconv.Itoa(pid))
	if err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	seg := &segment{lr: lr, cpu: cpu1 - cpu0, rssMB: rss}
	for _, s := range lr.samples {
		if s.cache == "hit" {
			seg.hits++
		}
	}
	return seg, nil
}

// modalSetupBoards is how many modal designs one set-up generates: a
// fixed amount of input generation, so that set-up costs the same for
// every seed and window.  The timed loop builds its designs itself.
const modalSetupBoards = 64

// runModal measures in-process detailed-modal studies with one caller.
func runModal(cfg *config) (*result, error) {
	res := newResult()
	var ready []float64
	// Set-up: input generation plus one untimed warm-up study, several
	// times; the warm-up board is outside the timed sequence.
	for k := 0; k < modalSetups; k++ {
		t0 := time.Now()
		for i := 0; i < modalSetupBoards; i++ {
			if _, _, err := modalDesign(modalBoard(cfg.seed, i)); err != nil {
				return nil, err
			}
		}
		wd, ws, err := modalDesign(warmModalBoard())
		if err != nil {
			return nil, err
		}
		rep, err := core.Study(wd, ws)
		res.count(1, boolInt(checkModal(wd, rep, err) != nil))
		ready = append(ready, time.Since(t0).Seconds())
	}
	res.set("setup_s", median(ready), "s")

	var lat []float64
	failed := 0
	cpu0 := selfCPU()
	start := time.Now()
	deadline := start.Add(cfg.window)
	i := 0
	for ; time.Now().Before(deadline); i++ {
		// A design serves one study (core.Study fills in defaults), so
		// each is built fresh; board i depends on the seed and i only.
		d, screen, err := modalDesign(modalBoard(cfg.seed, i))
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		rep, err := core.Study(d, screen)
		dt := time.Since(t0)
		if err := checkModal(d, rep, err); err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "aeropackbench: modal board %d: %v\n", i, err)
			continue
		}
		lat = append(lat, float64(dt)/float64(time.Millisecond))
	}
	elapsed := time.Since(start)
	cpu := selfCPU() - cpu0
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	latencyMetrics(res, lat, i, failed, elapsed)
	res.set("peak_rss_mb", rss, "MiB")
	res.set("cpu_ms_per_op", float64(cpu)/float64(time.Millisecond)/float64(max(len(lat), 1)), "ms")
	res.note("setup_s set-ups (s): %s", fmtList(ready))
	return res, nil
}

// checkModal validates one in-process detailed study.
func checkModal(d *core.BoardDesign, rep *core.Report, err error) error {
	if err != nil {
		return err
	}
	if rep.Level2 == nil || rep.Level3 == nil || rep.Mech == nil {
		return fmt.Errorf("report is missing a level")
	}
	if !finite(rep.Level2.MaxBoardC, rep.Level2.MeanBoardC, rep.Level3.WorstC, rep.Mech.FundamentalHz, rep.Mech.ResponseGRMS) {
		return fmt.Errorf("report holds a non-finite value")
	}
	if len(rep.Level3.Margins) != len(d.Components) {
		return fmt.Errorf("%d junction margins for %d components", len(rep.Level3.Margins), len(d.Components))
	}
	if f := rep.Mech.FundamentalHz; f < 5 || f > 5000 {
		return fmt.Errorf("fundamental %g Hz out of range", f)
	}
	return nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
