package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aeropack/internal/serve"
)

// clientCount is the number of closed-loop clients: one per CPU, at most
// two.  Each client waits for its answer before sending the next request.
func clientCount() int { return min(2, runtime.NumCPU()) }

func newClient() *http.Client {
	return &http.Client{
		Timeout:   120 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
	}
}

// sample is one answered request.
type sample struct {
	index   int
	latency time.Duration
	cache   string
	resp    *serve.StudyResponse
	err     error
}

// loadResult is what a closed-loop pass observed.
type loadResult struct {
	samples []sample
	elapsed time.Duration
}

func (lr *loadResult) failures() int {
	n := 0
	for _, s := range lr.samples {
		if s.err != nil {
			n++
		}
	}
	return n
}

// okLatencies returns the latencies of the correct answers, in ms.
func (lr *loadResult) okLatencies() []float64 {
	var out []float64
	for _, s := range lr.samples {
		if s.err == nil {
			out = append(out, ms(s.latency))
		}
	}
	return out
}

// job is one request: its body and, for a body whose first answer was
// already checked in full, the bytes every later answer must repeat.
type job struct {
	req  *serve.StudyRequest
	body []byte
	want []byte
}

func newJob(req *serve.StudyRequest) job { return job{req: req, body: mustBody(req)} }

// closedLoop drives the daemon with clientCount() clients.  Request i is
// next(i); a pass ends after count requests, or, when count is 0, once
// the window has passed (requests in flight then finish and count).
func closedLoop(d *daemon, next func(i int) job, count int, window time.Duration) *loadResult {
	var (
		claim atomic.Int64
		mu    sync.Mutex
		wg    sync.WaitGroup
		res   loadResult
	)
	start := time.Now()
	deadline := start.Add(window)
	for c := 0; c < clientCount(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(claim.Add(1) - 1)
				if (count > 0 && i >= count) || (count == 0 && time.Now().After(deadline)) {
					return
				}
				s := send(d, next(i), i)
				s.resp = nil // only checked here, not kept
				mu.Lock()
				res.samples = append(res.samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	sort.Slice(res.samples, func(a, b int) bool { return res.samples[a].index < res.samples[b].index })
	return &res
}

// send posts one request and checks the answer: in full, or, for a
// repeated body, that it replays the checked first answer bitwise.
func send(d *daemon, j job, i int) sample {
	t0 := time.Now()
	status, resp, cache, err := d.post(j.body)
	s := sample{index: i, latency: time.Since(t0), cache: cache}
	switch {
	case err != nil:
		s.err = fmt.Errorf("transport: %w", err)
	case j.want != nil:
		if status != 200 || !bytes.Equal(resp, j.want) {
			s.err = fmt.Errorf("status %d: the answer does not replay the checked first answer", status)
		}
	default:
		s.resp, s.err = checkResponse(j.req, j.body, status, resp)
	}
	if s.err != nil {
		fmt.Fprintf(os.Stderr, "aeropackbench: request %d (%s): %v\n", i, j.req.Kind, s.err)
	}
	return s
}

// warmHotSet sends the cosee-mixed hot set once, checks each answer in
// full and returns the hot jobs with those answers as the bytes every
// later hit must replay.
func warmHotSet(d *daemon, seed int64) ([]job, int, error) {
	jobs := make([]job, coseeHotSize)
	failed := 0
	for h := range jobs {
		jobs[h] = newJob(coseeHotBody(seed, h))
		status, resp, _, err := d.post(jobs[h].body)
		if err != nil {
			return nil, 0, fmt.Errorf("warming the hot set: %w", err)
		}
		if _, err := checkResponse(jobs[h].req, jobs[h].body, status, resp); err != nil {
			fmt.Fprintf(os.Stderr, "aeropackbench: hot body %d: %v\n", h, err)
			failed++
		}
		jobs[h].want = resp
	}
	return jobs, failed, nil
}

// coseeJob is request i of the cosee-mixed sequence: a hot job or a new
// body.
func coseeJob(seed int64, i int, hot []job) job {
	req, h := coseeRequest(seed, i)
	if h >= 0 {
		return hot[h]
	}
	return newJob(req)
}

// median of a sample (NaN when empty).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that still has at least ten
// samples beyond it: the 11th-largest value, at percentile 100·(n−10)/n.
// With ten samples or fewer there is no such percentile and it returns
// the largest value, at percentile 100.
func tail(xs []float64) (value, percentile float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n <= 10 {
		return s[n-1], 100
	}
	return s[n-11], 100 * float64(n-10) / float64(n)
}
