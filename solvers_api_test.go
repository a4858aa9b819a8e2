package spmvtune_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"spmvtune"
)

func spdSystem(n int) (*spmvtune.Matrix, []float64) {
	coo := &spmvtune.COO{Rows: n, Cols: n}
	for i := 0; i < n; i++ {
		coo.Add(i, i, 5)
		if i+1 < n {
			coo.Add(i, i+1, -1)
			coo.Add(i+1, i, -1)
		}
	}
	a, err := coo.ToCSR()
	if err != nil {
		panic(err)
	}
	b := make([]float64, n)
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	a.MulVec(ones, b)
	return a, b
}

func TestPublicSolvers(t *testing.T) {
	a, b := spdSystem(2000)
	mul := spmvtune.DefaultSpMV(a)

	x := make([]float64, len(b))
	res, err := spmvtune.SolveCG(mul, b, x, 1e-10, 0)
	if err != nil || !res.Converged {
		t.Fatalf("CG: %v %+v", err, res)
	}
	x2 := make([]float64, len(b))
	if _, err := spmvtune.SolveBiCGSTAB(mul, b, x2, 1e-10, 0); err != nil {
		t.Fatalf("BiCGSTAB: %v", err)
	}
	xg := make([]float64, len(b))
	if _, err := spmvtune.SolveGMRES(mul, b, xg, 1e-10, 0, 0); err != nil {
		t.Fatalf("GMRES: %v", err)
	}
	for i := range xg {
		if math.Abs(xg[i]-1) > 1e-6 {
			t.Fatalf("GMRES solution wrong at %d", i)
		}
	}

	// SpMM agrees with repeated SpMV.
	const k = 3
	xm := make([]float64, a.Cols*k)
	for i := range xm {
		xm[i] = float64(i % 5)
	}
	um := make([]float64, a.Rows*k)
	if err := spmvtune.SpMM(a, xm, k, um, 2); err != nil {
		t.Fatal(err)
	}
	vj := make([]float64, a.Cols)
	uj := make([]float64, a.Rows)
	for c := 0; c < a.Cols; c++ {
		vj[c] = xm[c*k] // column 0
	}
	spmvtune.Reference(a, vj, uj)
	for r := 0; r < a.Rows; r++ {
		if math.Abs(um[r*k]-uj[r]) > 1e-9 {
			t.Fatalf("SpMM column 0 differs at row %d", r)
		}
	}
	x3 := make([]float64, len(b))
	if _, err := spmvtune.SolveJacobi(a, mul, b, x3, 1e-10, 100000); err != nil {
		t.Fatalf("Jacobi: %v", err)
	}
	for i := range x {
		if math.Abs(x[i]-1) > 1e-6 || math.Abs(x2[i]-1) > 1e-6 || math.Abs(x3[i]-1) > 1e-6 {
			t.Fatalf("solvers disagree with exact solution at %d: %v %v %v", i, x[i], x2[i], x3[i])
		}
	}

	// Power iteration on a diagonal matrix.
	coo := &spmvtune.COO{Rows: 50, Cols: 50}
	for i := 0; i < 50; i++ {
		coo.Add(i, i, float64(i+1))
	}
	d, _ := coo.ToCSR()
	start := make([]float64, 50)
	for i := range start {
		start[i] = 1
	}
	lambda, _, err := spmvtune.DominantEigen(spmvtune.DefaultSpMV(d), start, 1e-12, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lambda-50) > 1e-6 {
		t.Errorf("dominant eigenvalue %v, want 50", lambda)
	}
}

// TestPublicSolversRejectLengthMismatch: an x whose length differs from b's
// is an error from every linear solver, never an index panic.
func TestPublicSolversRejectLengthMismatch(t *testing.T) {
	a, b := spdSystem(50)
	mul := spmvtune.DefaultSpMV(a)
	ctx := context.Background()
	solvers := []struct {
		name  string
		solve func(x []float64) (spmvtune.SolveResult, error)
	}{
		{"SolveCG", func(x []float64) (spmvtune.SolveResult, error) { return spmvtune.SolveCG(mul, b, x, 1e-10, 0) }},
		{"SolveCGCtx", func(x []float64) (spmvtune.SolveResult, error) { return spmvtune.SolveCGCtx(ctx, mul, b, x, 1e-10, 0) }},
		{"SolveGMRES", func(x []float64) (spmvtune.SolveResult, error) { return spmvtune.SolveGMRES(mul, b, x, 1e-10, 0, 0) }},
		{"SolveGMRESCtx", func(x []float64) (spmvtune.SolveResult, error) {
			return spmvtune.SolveGMRESCtx(ctx, mul, b, x, 1e-10, 0, 0)
		}},
		{"SolveJacobi", func(x []float64) (spmvtune.SolveResult, error) { return spmvtune.SolveJacobi(a, mul, b, x, 1e-10, 0) }},
		{"SolveJacobiCtx", func(x []float64) (spmvtune.SolveResult, error) {
			return spmvtune.SolveJacobiCtx(ctx, a, mul, b, x, 1e-10, 0)
		}},
		{"SolveBiCGSTAB", func(x []float64) (spmvtune.SolveResult, error) { return spmvtune.SolveBiCGSTAB(mul, b, x, 1e-10, 0) }},
		{"SolveBiCGSTABCtx", func(x []float64) (spmvtune.SolveResult, error) {
			return spmvtune.SolveBiCGSTABCtx(ctx, mul, b, x, 1e-10, 0)
		}},
	}
	for _, s := range solvers {
		for _, n := range []int{len(b) - 1, len(b) + 1} {
			t.Run(fmt.Sprintf("%s/len%d", s.name, n), func(t *testing.T) {
				if _, err := s.solve(make([]float64, n)); err == nil {
					t.Errorf("len(x)=%d, len(b)=%d accepted", n, len(b))
				}
			})
		}
	}
}

func TestPublicSolverWithPreparedBackend(t *testing.T) {
	cfg := spmvtune.DefaultConfig()
	model, _, err := spmvtune.TrainPipeline(cfg, apiTrainOptions())
	if err != nil {
		t.Fatal(err)
	}
	fw := spmvtune.NewFramework(cfg, model)
	a, b := spdSystem(1500)
	_, mul := spmvtune.PrepareCPU(fw, a, 2)
	x := make([]float64, len(b))
	res, err := spmvtune.SolveCG(mul, b, x, 1e-10, 0)
	if err != nil || !res.Converged {
		t.Fatalf("CG with prepared backend: %v %+v", err, res)
	}
	for i := range x {
		if math.Abs(x[i]-1) > 1e-6 {
			t.Fatalf("wrong solution at %d", i)
		}
	}
}

func TestPublicReorder(t *testing.T) {
	a := spmvtune.GenBanded(500, 5, 3)
	// Shuffle, then RCM back.
	shufflePerm := make([]int, a.Rows)
	for i := range shufflePerm {
		shufflePerm[i] = (i*7919 + 13) % a.Rows // bijection for prime stride
	}
	seen := map[int]bool{}
	for _, p := range shufflePerm {
		if seen[p] {
			t.Skip("stride not a bijection for this size")
		}
		seen[p] = true
	}
	shuffled := spmvtune.PermuteMatrix(a, shufflePerm)
	perm := spmvtune.RCM(shuffled)
	rcm := spmvtune.PermuteMatrix(shuffled, perm)
	// Operator preserved end to end.
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = float64(i % 11)
	}
	y := make([]float64, a.Rows)
	a.MulVec(x, y)
	xs := spmvtune.PermuteVec(spmvtune.PermuteVec(x, shufflePerm), perm)
	ys := make([]float64, a.Rows)
	rcm.MulVec(xs, ys)
	back := spmvtune.UnpermuteVec(spmvtune.UnpermuteVec(ys, perm), shufflePerm)
	if !spmvtune.VecApproxEqual(y, back, 1e-12) {
		t.Error("reordered operator differs after unpermutation")
	}
}
