// Command aeropackbench is aeropack's benchmark.  It measures three
// workloads end to end and, in a separate traced run, layer by layer.
// See README.md beside this file for the workloads, the metrics and the
// layer map.  run.sh builds it together with aeropackd and runs it:
//
//	bash aeropackbench/run.sh --workload board-cold --seed 1 --seconds 45 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

type config struct {
	workload string
	seed     int64
	window   time.Duration
	bin      string // built aeropackd
	out      string // directory for the Chrome trace
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	notes     []string
}

func newResult() *result { return &result{Metrics: make(map[string]metric)} }

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// count adds attempts and failures.
func (r *result) count(attempted, failed int) {
	r.Attempted += attempted
	r.Failed += failed
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "board-cold, cosee-mixed or modal")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	seconds := flag.Int("seconds", 45, "length of the timed window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: the traced per-layer suite")
	flag.StringVar(&cfg.bin, "aeropackd", "", "path of the built aeropackd binary")
	flag.StringVar(&cfg.out, "out", ".", "directory for the Chrome trace")
	flag.Parse()
	cfg.window = time.Duration(*seconds) * time.Second

	res, err := run(&cfg, *trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aeropackbench:", err)
		os.Exit(1)
	}
	for _, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			fmt.Fprintln(os.Stderr, "aeropackbench: a metric is not finite")
			os.Exit(1)
		}
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aeropackbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-44s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, n := range res.notes {
		fmt.Println(n)
	}
	fmt.Printf("failed_frac = %d/%d\n", res.Failed, res.Attempted)
	fmt.Println(string(line))
}

func run(cfg *config, trace int) (*result, error) {
	if trace != 0 && trace != 1 {
		return nil, fmt.Errorf("-trace must be 0 or 1")
	}
	known := map[string]bool{"board-cold": true, "cosee-mixed": true, "modal": true}
	if !known[cfg.workload] {
		return nil, fmt.Errorf("unknown workload %q (want board-cold, cosee-mixed or modal)", cfg.workload)
	}
	if cfg.window <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	if trace == 1 {
		return runLayers(cfg)
	}
	if cfg.workload == "modal" {
		return runModal(cfg)
	}
	return runServed(cfg)
}

// latencyMetrics adds the latency, throughput and failure metrics of a
// timed window; lat holds the correct answers' latencies.
func latencyMetrics(res *result, lat []float64, attempted, failed int, elapsed time.Duration) {
	res.count(attempted, failed)
	ok := len(lat)
	res.set("throughput_ops_s", float64(ok)/elapsed.Seconds(), "1/s")
	res.set("latency_p50_ms", median(lat), "ms")
	// The tail is the highest percentile with at least ten samples beyond
	// it, over the whole window.
	v, pct := tail(lat)
	res.set("latency_tail_ms", v, "ms")
	res.note("latency_tail_ms is p%.2f: %d of %d samples beyond it", pct, min(10, ok), ok)
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}
