package main

import (
	"fmt"
	"math"

	"aeropack/internal/linalg"
	"aeropack/internal/obs"
)

// The kernel probe times the level-2 sparse kernels on an operator the
// benchmark builds itself: the 7-point finite-volume conduction stencil
// at board-cold's largest grid (80×80×2 cells on a 200 mm, 1.6 mm board),
// anisotropic like a copper-layered PCB, with a convective film on both
// faces so it is symmetric positive definite.
const (
	probeNX, probeNY, probeNZ = 80, 80, 2
	probeReps                 = 15  // ToCSR and IC(0) set-ups
	probeKernelReps           = 200 // IC(0) applies and SpMVs
	probeCGReps               = 3
)

func fvOperator() (*linalg.COO, []float64) {
	const (
		lx, ly, lz = 0.2, 0.2, 1.6e-3
		kxy, kz    = 30.0, 0.4 // W/mK in-plane, through-plane
		film       = 40.0      // W/m²K on both faces
	)
	nx, ny, nz := probeNX, probeNY, probeNZ
	dx, dy, dz := lx/float64(nx), ly/float64(ny), lz/float64(nz)
	n := nx * ny * nz
	coo := linalg.NewCOO(n, n)
	b := make([]float64, n)
	idx := func(i, j, k int) int { return (k*ny+j)*nx + i }
	link := func(p, q int, g float64) {
		coo.Add(p, p, g)
		coo.Add(q, q, g)
		coo.Add(p, q, -g)
		coo.Add(q, p, -g)
	}
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				p := idx(i, j, k)
				if i+1 < nx {
					link(p, idx(i+1, j, k), kxy*dy*dz/dx)
				}
				if j+1 < ny {
					link(p, idx(i, j+1, k), kxy*dx*dz/dy)
				}
				if k+1 < nz {
					link(p, idx(i, j, k+1), kz*dx*dy/dz)
				}
				if k == 0 || k == nz-1 {
					// Film in series with the half-cell conduction.
					coo.Add(p, p, dx*dy/(1/film+dz/(2*kz)))
				}
				b[p] = 10.0 / float64(n) // 10 W spread evenly
			}
		}
	}
	b[idx(nx/3, ny/2, nz-1)] += 5 // a 5 W hot spot
	return coo, b
}

// kernelProbe runs the probe with every call inside a span of the
// process tracer, checks the CG answer and returns the operator's CSR
// size.
func kernelProbe() (rows, nnz int, err error) {
	coo, b := fvOperator()
	var a *linalg.CSR
	for r := 0; r < probeReps; r++ {
		sp := obs.Start(nil, "bench.linalg.ToCSR")
		a = coo.ToCSR()
		sp.End()
	}
	var prec *linalg.ICPrec
	for r := 0; r < probeReps; r++ {
		sp := obs.Start(nil, "bench.linalg.NewICPrec")
		prec, err = linalg.NewICPrec(a)
		sp.End()
		if err != nil {
			return 0, 0, fmt.Errorf("IC(0) on the probe operator: %w", err)
		}
	}
	z := make([]float64, a.Rows)
	for r := 0; r < probeKernelReps; r++ {
		sp := obs.Start(nil, "bench.linalg.ICPrec.Apply")
		prec.Apply(b, z)
		sp.End()
	}
	y := make([]float64, a.Rows)
	for r := 0; r < probeKernelReps; r++ {
		sp := obs.Start(nil, "bench.linalg.CSR.MulVec")
		a.MulVec(z, y)
		sp.End()
	}
	for r := 0; r < probeCGReps; r++ {
		sp := obs.Start(nil, "bench.linalg.CGOpt")
		x, stats, err := linalg.CGOpt(a, b, nil, &linalg.IterOptions{Tol: 1e-10, MaxIter: 20000, Prec: prec})
		sp.AttrInt("iterations", stats.Iterations)
		sp.End()
		if err != nil || !stats.Converged {
			return 0, 0, fmt.Errorf("CG on the probe operator: converged=%v: %v", stats.Converged, err)
		}
		// Check the answer independently of the solver's own residual.
		ax := a.MulVec(x, nil)
		var rr, bb float64
		for i := range b {
			rr += (b[i] - ax[i]) * (b[i] - ax[i])
			bb += b[i] * b[i]
		}
		if res := math.Sqrt(rr / bb); !(res <= 1e-8) {
			return 0, 0, fmt.Errorf("CG on the probe operator: relative residual %g", res)
		}
	}
	return a.Rows, a.NNZ(), nil
}

// spmvBytes is the memory traffic of one CSR SpMV computed from array
// sizes: values and column indices once each, the row pointer, x read
// once and y written once (8-byte floats and ints).
func spmvBytes(rows, nnz int) float64 {
	return float64(8*nnz + 8*nnz + 8*(rows+1) + 8*rows + 8*rows)
}
