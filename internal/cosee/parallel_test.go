package cosee

import (
	"testing"

	"aeropack/internal/materials"
	"aeropack/internal/robust"
)

// TestSweepParallelGolden is the Fig. 10 serial-vs-parallel golden
// comparison: every point of a pooled sweep must be bitwise identical to
// the Workers: 1 curve, for every configuration and at several worker
// counts, and so must the SweepParallel face.
func TestSweepParallelGolden(t *testing.T) {
	powers := []float64{10, 25, 40, 60, 80, 100}
	for _, cfg := range []struct {
		name string
		c    Config
	}{
		{"bare", Config{}},
		{"lhp", Config{UseLHP: true}},
		{"lhp-tilted-composite", Config{UseLHP: true, TiltDeg: 22, Structure: materials.CarbonComposite}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			serialCfg := cfg.c
			want, _, err := serialCfg.Sweep(powers, serial)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{1, 2, 4, 0} {
				parCfg := cfg.c
				got, _, err := parCfg.Sweep(powers, robust.Options{Workers: w})
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				face, err := parCfg.SweepParallel(powers, w)
				if err != nil {
					t.Fatalf("SweepParallel workers=%d: %v", w, err)
				}
				if len(got) != len(want) || len(face) != len(want) {
					t.Fatalf("workers=%d: %d/%d points, want %d", w, len(got), len(face), len(want))
				}
				for i := range want {
					if got[i] != want[i] || face[i] != want[i] {
						t.Fatalf("workers=%d: point %d = %+v / %+v, want %+v (must be bitwise identical)",
							w, i, got[i], face[i], want[i])
					}
				}
			}
		})
	}
}

func TestRunFig10WorkersGolden(t *testing.T) {
	want, _, err := RunFig10Opts(Fig10Options{Structure: materials.Al6061, Options: serial})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := RunFig10Opts(Fig10Options{Structure: materials.Al6061, Options: robust.Options{Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Fatalf("Workers: 4 Fig. 10 summary %+v differs from Workers: 1 %+v", *got, *want)
	}
}
