package envtest

import (
	"errors"
	"testing"

	"aeropack/internal/cosee"
	"aeropack/internal/robust"
)

// parallelArticle builds a qualification article whose thermal hook is
// safe for concurrent calls: the cosee configuration is copied per
// invocation because Config.Solve mutates its receiver via Defaults.
func parallelArticle(name string) *Article {
	base := cosee.Config{UseLHP: true}
	a := sebArticle()
	a.Name = name
	a.DeltaTAt = func(p float64) (float64, error) {
		cfg := base
		pt, err := cfg.Solve(p)
		if err != nil {
			return 0, err
		}
		return pt.DeltaTK, nil
	}
	return a
}

func TestRunAllParallelMatchesSerial(t *testing.T) {
	c := DefaultCampaign()
	a := parallelArticle("seb-parallel")
	want, _, err := c.Run(a, robust.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 4, 0} {
		got, _, err := c.Run(a, robust.Options{Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		face, err := c.RunAllParallel(a, w)
		if err != nil {
			t.Fatalf("RunAllParallel workers=%d: %v", w, err)
		}
		if len(got) != len(want) || len(face) != len(want) {
			t.Fatalf("workers=%d: %d/%d results, want %d", w, len(got), len(face), len(want))
		}
		for i := range want {
			if got[i] != want[i] || face[i] != want[i] {
				t.Fatalf("workers=%d: result %d = %+v / %+v, want %+v", w, i, got[i], face[i], want[i])
			}
		}
	}
}

func TestExtendedRunAllParallelMatchesSerial(t *testing.T) {
	e := DefaultExtended()
	a := parallelArticle("seb-extended-parallel")
	want, _, err := e.Run(a, robust.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.RunAllParallel(a, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(want) != 6 {
		t.Fatalf("%d results, want %d (six tests)", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("result %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestRunKeepGoing pins the keep-going contract of the one campaign
// runner: a failed test becomes a labelled PointError plus an ERROR
// placeholder while the others match the clean run, and an invalid
// article is an error without KeepGoing but the single "validate"
// PointError with it.
func TestRunKeepGoing(t *testing.T) {
	e := DefaultExtended()
	clean, _, err := e.Run(parallelArticle("seb"), robust.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	hot := parallelArticle("seb")
	hot.DeltaTAt = func(float64) (float64, error) { return 0, errors.New("solver down") }
	got, errs, err := e.Run(hot, robust.Options{Workers: 4, KeepGoing: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) != 1 || errs[0].Label != "climatic" || errs[0].Index != 2 {
		t.Fatalf("errs = %v, want exactly the climatic test", errs)
	}
	for i := range clean {
		if i == 2 {
			if got[i].Pass || got[i].Detail != "ERROR: solver down" {
				t.Errorf("placeholder = %+v", got[i])
			}
			continue
		}
		if got[i] != clean[i] {
			t.Errorf("surviving result %d = %+v, want %+v", i, got[i], clean[i])
		}
	}
	if _, _, err := e.Run(hot, robust.Options{Workers: 4}); err == nil {
		t.Error("a failing test must abort a run without KeepGoing")
	}

	bad := parallelArticle("broken")
	bad.MassKg = 0
	if _, _, err := e.Run(bad, robust.Options{}); err == nil {
		t.Error("an invalid article must fail a run without KeepGoing")
	}
	res, errs, err := e.Run(bad, robust.Options{KeepGoing: true})
	if err != nil || res != nil || len(errs) != 1 || errs[0].Label != "validate" {
		t.Errorf("keep-going invalid article: res %v, errs %v, err %v; want the validate PointError", res, errs, err)
	}
}
