// Package scope exercises the detguard rule: wall-clock reads, math/rand
// draws and map iteration inside closures handed to the parallel engine
// are flagged; deterministic bodies and hoisted nondeterminism are fine;
// //lint:allow suppresses one call.
package scope

import (
	"math/rand"
	"time"

	"aeropack/internal/parallel"
	"aeropack/internal/robust"
)

// WallClock is flagged: time.Now inside a parallel.Map body.
func WallClock(xs []float64) ([]float64, error) {
	return parallel.Map(xs, 2, func(i int, x float64) (float64, error) {
		t := time.Now()
		return x * float64(t.Nanosecond()), nil
	})
}

// Random is flagged: math/rand inside a parallel.For body.
func Random(out []float64) {
	parallel.For(len(out), 2, func(i int) {
		out[i] = rand.Float64()
	})
}

// MapOrder is flagged: map iteration inside a parallel.Blocks body.
func MapOrder(w map[string]float64, out []float64) {
	parallel.Blocks(len(out), 2, func(b, lo, hi int) {
		s := 0.0
		for _, v := range w {
			s += v
		}
		for i := lo; i < hi; i++ {
			out[i] = s
		}
	})
}

// KeepGoingClock is flagged: time.Since inside a keep-going robust.Map
// body.
func KeepGoingClock(xs []float64) ([]float64, []*robust.PointError, error) {
	start := time.Now()
	return robust.Map(xs, robust.Options{Workers: 2, KeepGoing: true}, nil, func(i int, x float64) (float64, error) {
		return x + time.Since(start).Seconds(), nil
	})
}

// Deterministic is fine: the body derives everything from the index.
func Deterministic(xs []float64) ([]float64, error) {
	return parallel.Map(xs, 2, func(i int, x float64) (float64, error) {
		return x * float64(i), nil
	})
}

// Hoisted is fine: the clock is read once, outside the worker.
func Hoisted(out []float64) {
	now := float64(time.Now().Unix())
	parallel.For(len(out), 2, func(i int) {
		out[i] = now
	})
}

// Suppressed is tolerated by the trailing allow directive.
func Suppressed(out []float64) {
	parallel.For(len(out), 2, func(i int) {
		out[i] = float64(time.Now().Unix()) //lint:allow detguard coarse timestamp tag, not part of the numeric result
	})
}
