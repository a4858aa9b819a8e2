// Conjugate-gradient solve of a symmetric positive-definite banded system
// (a 1-D Poisson-like FEM stencil — the apache1/cryg10000 family from the
// paper's Table II) with the auto-tuned SpMV as the inner product kernel.
//
//	go run ./examples/cg [-n 100000] [-band 9]
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"spmvtune"
)

// spdBanded builds a strictly diagonally dominant symmetric banded matrix:
// off-diagonals -1 within the half-band, diagonal = band (so A is SPD).
func spdBanded(n, band int) *spmvtune.Matrix {
	coo := &spmvtune.COO{Rows: n, Cols: n}
	half := band / 2
	for i := 0; i < n; i++ {
		for d := -half; d <= half; d++ {
			j := i + d
			if j < 0 || j >= n {
				continue
			}
			if d == 0 {
				coo.Add(i, j, float64(band))
			} else {
				coo.Add(i, j, -1)
			}
		}
	}
	a, err := coo.ToCSR()
	if err != nil {
		panic(err)
	}
	return a
}

func main() {
	n := flag.Int("n", 100000, "system size")
	band := flag.Int("band", 9, "stencil band width")
	tol := flag.Float64("tol", 1e-10, "relative residual tolerance")
	corpus := flag.Int("corpus", 30, "training corpus size")
	flag.Parse()
	log.SetFlags(0)

	a := spdBanded(*n, *band)
	fmt.Printf("system matrix: %s\n", spmvtune.Extract(a))

	// The right-hand side is chosen so the exact solution is x*=all-ones.
	xStar := make([]float64, *n)
	for i := range xStar {
		xStar[i] = 1
	}
	b := make([]float64, *n)
	spmvtune.Reference(a, xStar, b)

	cfg := spmvtune.DefaultConfig()
	opts := spmvtune.DefaultTrainOptions()
	opts.CorpusSize = *corpus
	opts.MinRows, opts.MaxRows = 256, 2048
	model, _, err := spmvtune.TrainPipeline(cfg, opts)
	if err != nil {
		log.Fatal(err)
	}
	fw := spmvtune.NewFramework(cfg, model)

	// Conjugate gradient with the auto-tuned SpMV for every A*p: the
	// strategy is decided once and the closure reuses it each iteration.
	decision, mul := spmvtune.PrepareCPU(fw, a, 0)
	x := make([]float64, *n)
	res, err := spmvtune.SolveCG(mul, b, x, *tol, 0)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("auto-tuned decision: %v\n", decision)
	fmt.Printf("CG converged in %d iterations, relative residual %.3g\n",
		res.Iterations, res.Residual)

	// Error against the known exact solution.
	maxErr := 0.0
	for i := range x {
		if d := math.Abs(x[i] - 1); d > maxErr {
			maxErr = d
		}
	}
	fmt.Printf("max |x - x*| = %.3g\n", maxErr)
	if maxErr > 1e-6 {
		log.Fatal("solution check FAILED")
	}
	fmt.Println("solution verified against the exact answer ✓")
}
