package robust

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestMapClean(t *testing.T) {
	items := []float64{1, 2, 3, 4}
	for _, o := range []Options{{Workers: 2}, {Workers: 2, KeepGoing: true}} {
		out, errs, err := Map(items, o, nil, func(_ int, v float64) (float64, error) {
			return v * 10, nil
		})
		if len(errs) != 0 || err != nil {
			t.Fatalf("%+v: unexpected errors: %v, %v", o, errs, err)
		}
		for i, v := range out {
			if v != items[i]*10 {
				t.Errorf("%+v: out[%d] = %v, want %v", o, i, v, items[i]*10)
			}
		}
	}
}

// TestMapStrictReturnsLowestError pins the mode without KeepGoing: the
// run aborts with the error a serial scan would hit first, at any
// worker count, and captures no PointError.
func TestMapStrictReturnsLowestError(t *testing.T) {
	reg := withRegistry(t)
	items := []int{0, 1, 2, 3, 4, 5}
	for _, workers := range []int{1, 4} {
		out, errs, err := Map(items, Options{Workers: workers}, nil, func(_ int, v int) (int, error) {
			if v%2 == 1 {
				return 0, fmt.Errorf("odd item %d", v)
			}
			return v, nil
		})
		if err == nil || err.Error() != "odd item 1" {
			t.Errorf("workers %d: err = %v, want odd item 1", workers, err)
		}
		if out != nil || errs != nil {
			t.Errorf("workers %d: out = %v, errs = %v, want both nil", workers, out, errs)
		}
	}
	if got := reg.Counter("robust_point_errors_total").Value(); got != 0 {
		t.Errorf("robust_point_errors_total = %d, want 0 without KeepGoing", got)
	}
}

func TestMapCapturesFailures(t *testing.T) {
	reg := withRegistry(t)
	items := []int{0, 1, 2, 3, 4, 5}
	out, errs, err := Map(items, Options{Workers: 3, KeepGoing: true},
		func(i int, v int) string { return fmt.Sprintf("item-%d", v) },
		func(_ int, v int) (int, error) {
			if v%2 == 1 {
				return 0, fmt.Errorf("odd item %d", v)
			}
			return v * v, nil
		})
	if err != nil {
		t.Fatalf("KeepGoing returned a run error: %v", err)
	}
	if len(errs) != 3 {
		t.Fatalf("got %d errors, want 3: %v", len(errs), errs)
	}
	// Errors arrive in index order with their labels and causes intact.
	wantIdx := []int{1, 3, 5}
	for k, pe := range errs {
		if pe.Index != wantIdx[k] {
			t.Errorf("errs[%d].Index = %d, want %d", k, pe.Index, wantIdx[k])
		}
		if want := fmt.Sprintf("item-%d", pe.Index); pe.Label != want {
			t.Errorf("errs[%d].Label = %q, want %q", k, pe.Label, want)
		}
	}
	// Surviving slots hold the computed value, failed slots the zero value.
	for i, v := range out {
		want := 0
		if i%2 == 0 {
			want = i * i
		}
		if v != want {
			t.Errorf("out[%d] = %d, want %d", i, v, want)
		}
	}
	if got := reg.Counter("robust_point_errors_total").Value(); got != 3 {
		t.Errorf("robust_point_errors_total = %d, want 3", got)
	}
}

func TestMapSurvivorsBitwiseIdentical(t *testing.T) {
	powers := []float64{1.1, 2.2, 3.3, 4.4, 5.5}
	solve := func(p float64) float64 { return math.Sqrt(p) * math.Exp(-p/3) }
	clean, _, err := Map(powers, Options{Workers: 4}, nil, func(_ int, p float64) (float64, error) {
		return solve(p), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	faulty, errs, _ := Map(powers, Options{Workers: 4, KeepGoing: true}, nil, func(i int, p float64) (float64, error) {
		if i == 2 {
			return 0, errors.New("injected")
		}
		return solve(p), nil
	})
	if len(errs) != 1 || errs[0].Index != 2 {
		t.Fatalf("errs = %v, want exactly index 2", errs)
	}
	for i := range clean {
		if i == 2 {
			continue
		}
		if math.Float64bits(faulty[i]) != math.Float64bits(clean[i]) {
			t.Errorf("survivor %d not bitwise-identical: %x vs %x",
				i, math.Float64bits(faulty[i]), math.Float64bits(clean[i]))
		}
	}
}

func TestMapPanicsPropagate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("worker panic must propagate, not be captured as a PointError")
		}
	}()
	_, _, err := Map([]int{0}, Options{Workers: 1, KeepGoing: true}, nil, func(int, int) (int, error) {
		panic("contract violation")
	})
	t.Fatalf("Map returned (err %v) instead of panicking", err)
}

func TestPointErrorFormatting(t *testing.T) {
	cause := errors.New("solver blew up")
	pe := &PointError{Index: 5, Label: "P=60 W", Err: cause}
	if got := pe.Error(); !strings.Contains(got, "point 5 (P=60 W)") || !strings.Contains(got, "solver blew up") {
		t.Errorf("Error() = %q", got)
	}
	if !errors.Is(pe, cause) {
		t.Error("errors.Is must reach the cause through Unwrap")
	}
	bare := &PointError{Index: 2, Err: cause}
	if got := bare.Error(); !strings.Contains(got, "point 2:") {
		t.Errorf("unlabelled Error() = %q", got)
	}
}

func TestFirstError(t *testing.T) {
	if FirstError(nil) != nil {
		t.Error("FirstError(nil) must be nil")
	}
	a := &PointError{Index: 4}
	b := &PointError{Index: 1}
	if got := FirstError([]*PointError{a, b}); got != b {
		t.Errorf("FirstError = %+v, want index 1", got)
	}
}
