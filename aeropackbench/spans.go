package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"aeropack/internal/obs"
)

// traceEvent is one complete ("X") event of a Chrome trace, in µs.
type traceEvent struct {
	Name string  `json:"name"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	self float64
}

func (e *traceEvent) end() float64 { return e.Ts + e.Dur }

// writeAndReadTrace exports the trace with obs's Chrome-trace writer and
// reads the events back: the file is the single source of the per-layer
// times, so what a reader opens in a trace viewer is what was reported.
func writeAndReadTrace(tr *obs.Trace, path string) ([]traceEvent, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		return nil, fmt.Errorf("reading back %s: %w", path, err)
	}
	return file.TraceEvents, nil
}

// section is the events inside the benchmark spans of one name, with
// self times computed among them.  The section spans themselves are
// excluded; wall is their summed duration in µs.
type section struct {
	wall   float64
	events []traceEvent
}

// sectionOf collects the events that lie inside the spans called name.
// Self times assume the section ran serially, so its spans nest
// properly; concurrent work must not be analysed this way.
func sectionOf(all []traceEvent, name string) (*section, error) {
	var parts []traceEvent
	for _, e := range all {
		if e.Name == name {
			parts = append(parts, e)
		}
	}
	if len(parts) == 0 {
		return nil, fmt.Errorf("trace has no %q span", name)
	}
	s := &section{}
	for _, p := range parts {
		s.wall += p.Dur
	}
	for _, e := range all {
		if e.Name == name {
			continue
		}
		for _, p := range parts {
			if e.Ts >= p.Ts && e.end() <= p.end()+1e-3 {
				s.events = append(s.events, e)
				break
			}
		}
	}
	sort.SliceStable(s.events, func(a, b int) bool {
		if s.events[a].Ts != s.events[b].Ts {
			return s.events[a].Ts < s.events[b].Ts
		}
		return s.events[a].Dur > s.events[b].Dur
	})
	// Self time: duration minus the part covered by direct children.
	var stack []int
	for i := range s.events {
		e := &s.events[i]
		e.self = e.Dur
		for len(stack) > 0 && s.events[stack[len(stack)-1]].end() <= e.Ts {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			p := &s.events[stack[len(stack)-1]]
			p.self -= min(e.end(), p.end()) - e.Ts
		}
		stack = append(stack, i)
	}
	return s, nil
}

// durations returns the durations of the section's spans called name, ms.
func (s *section) durations(name string) []float64 {
	var out []float64
	for _, e := range s.events {
		if e.Name == name {
			out = append(out, e.Dur/1e3)
		}
	}
	return out
}

// selfMS sums the self time of the section's spans called name, ms.
func (s *section) selfMS(name string) float64 {
	sum := 0.0
	for _, e := range s.events {
		if e.Name == name {
			sum += e.self
		}
	}
	return sum / 1e3
}

// layerSpans are the program's spans that stand for a layer of the
// study path, by the name the per-layer metrics use for it: the thermal
// driver (thermal.SolveSteady, thermal.Network.SolveSteady), assembly
// (thermal.assemble), preconditioner and Krylov solve (thermal.linSolve)
// and the mechanical pass with its eigensolve (core.Mechanical).  The
// self times of core.Study and core.Level1/2/3 are glue, and time in a
// section outside every span is the benchmark's own; neither is covered.
var layerSpans = []string{
	"thermal.SolveSteady", "thermal.Network.SolveSteady",
	"thermal.assemble", "thermal.linSolve", "core.Mechanical",
}

// minLayerCoverage is the share of a study section's traced wall time the
// layer spans' self times must cover; a run below it counts one failure.
const minLayerCoverage = 0.95

// layerCoverage is the share of the section's wall time covered by the
// self times of the layer spans inside it.
func (s *section) layerCoverage() float64 {
	covered := 0.0
	for _, name := range layerSpans {
		covered += s.selfMS(name)
	}
	return covered * 1e3 / s.wall
}

// selfByName sums self time per span name, ms, for the printed breakdown.
func (s *section) selfByName() map[string]float64 {
	out := make(map[string]float64)
	for _, e := range s.events {
		out[e.Name] += e.self / 1e3
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
