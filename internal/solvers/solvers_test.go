package solvers

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"spmvtune/internal/cpu"
	"spmvtune/internal/matgen"
	"spmvtune/internal/sparse"
)

// spdSystem builds a strictly diagonally dominant symmetric matrix and a
// right-hand side whose exact solution is all-ones.
func spdSystem(n, band int, seed int64) (*sparse.CSR, []float64, []float64) {
	coo := &sparse.COO{Rows: n, Cols: n}
	half := band / 2
	for i := 0; i < n; i++ {
		for d := -half; d <= half; d++ {
			j := i + d
			if j < 0 || j >= n {
				continue
			}
			if d == 0 {
				coo.Add(i, j, float64(band)+1)
			} else {
				coo.Add(i, j, -1)
			}
		}
	}
	a, err := coo.ToCSR()
	if err != nil {
		panic(err)
	}
	xStar := make([]float64, n)
	for i := range xStar {
		xStar[i] = 1
	}
	b := make([]float64, n)
	a.MulVec(xStar, b)
	_ = seed
	return a, b, xStar
}

func maxAbsDiff(x, y []float64) float64 {
	m := 0.0
	for i := range x {
		if d := math.Abs(x[i] - y[i]); d > m {
			m = d
		}
	}
	return m
}

func TestCGSolvesSPD(t *testing.T) {
	a, b, xStar := spdSystem(5000, 5, 1)
	x := make([]float64, len(b))
	res, err := CGCtx(context.Background(), Default(a), b, x, 1e-10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations == 0 {
		t.Fatalf("result: %+v", res)
	}
	if d := maxAbsDiff(x, xStar); d > 1e-6 {
		t.Errorf("max error %g", d)
	}
}

func TestCGWithParallelBackend(t *testing.T) {
	a, b, xStar := spdSystem(3000, 7, 2)
	backend := func(v, u []float64) { cpu.MulVecNNZ(a, v, u, 4) }
	x := make([]float64, len(b))
	if _, err := CGCtx(context.Background(), backend, b, x, 1e-10, 0); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(x, xStar); d > 1e-6 {
		t.Errorf("max error %g with parallel backend", d)
	}
}

func TestCGDetectsNonSPD(t *testing.T) {
	// An antisymmetric-ish matrix has p^T A p ~ 0: CG must break down
	// rather than loop.
	coo := &sparse.COO{Rows: 4, Cols: 4}
	coo.Add(0, 1, 1)
	coo.Add(1, 0, -1)
	coo.Add(2, 3, 1)
	coo.Add(3, 2, -1)
	a, _ := coo.ToCSR()
	b := []float64{1, 1, 1, 1}
	x := make([]float64, 4)
	_, err := CGCtx(context.Background(), Default(a), b, x, 1e-10, 100)
	if err == nil {
		t.Fatal("CG on non-SPD matrix should fail")
	}
	if !errors.Is(err, ErrBreakdown) && !errors.Is(err, ErrNotConverged) {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestBiCGSTABSolvesNonsymmetric(t *testing.T) {
	// Diagonally dominant but nonsymmetric: upper off-diagonal -1, lower
	// off-diagonal -0.5.
	n := 2000
	coo := &sparse.COO{Rows: n, Cols: n}
	for i := 0; i < n; i++ {
		coo.Add(i, i, 4)
		if i+1 < n {
			coo.Add(i, i+1, -1)
			coo.Add(i+1, i, -0.5)
		}
	}
	a, _ := coo.ToCSR()
	xStar := make([]float64, n)
	rng := rand.New(rand.NewSource(3))
	for i := range xStar {
		xStar[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	a.MulVec(xStar, b)
	x := make([]float64, n)
	res, err := BiCGSTABCtx(context.Background(), Default(a), b, x, 1e-10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("not converged: %+v", res)
	}
	if d := maxAbsDiff(x, xStar); d > 1e-6 {
		t.Errorf("max error %g", d)
	}
}

func TestBiCGSTABIterationBudget(t *testing.T) {
	a, b, _ := spdSystem(500, 5, 4)
	x := make([]float64, len(b))
	_, err := BiCGSTABCtx(context.Background(), Default(a), b, x, 1e-14, 2) // absurdly small budget
	if !errors.Is(err, ErrNotConverged) {
		t.Errorf("want ErrNotConverged, got %v", err)
	}
}

func TestJacobi(t *testing.T) {
	a, b, xStar := spdSystem(1000, 3, 5)
	x := make([]float64, len(b))
	res, err := JacobiCtx(context.Background(), a, Default(a), b, x, 1e-10, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("not converged: %+v", res)
	}
	if d := maxAbsDiff(x, xStar); d > 1e-6 {
		t.Errorf("max error %g", d)
	}
	// Zero diagonal is rejected.
	zero := matgen.SingleNNZRows(4, 4, 6)
	zero.ColIdx[0] = 1 // row 0 has no diagonal entry
	if _, err := JacobiCtx(context.Background(), zero, Default(zero), []float64{1, 1, 1, 1}, make([]float64, 4), 1e-10, 10); err == nil {
		t.Error("zero diagonal accepted")
	}
}

func TestPowerIteration(t *testing.T) {
	// Diagonal matrix: dominant eigenvalue is the largest diagonal entry.
	n := 200
	coo := &sparse.COO{Rows: n, Cols: n}
	for i := 0; i < n; i++ {
		coo.Add(i, i, float64(i+1))
	}
	a, _ := coo.ToCSR()
	x := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	lambda, res, err := PowerIterationCtx(context.Background(), Default(a), x, 1e-12, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lambda-float64(n)) > 1e-6 {
		t.Errorf("dominant eigenvalue %g, want %d", lambda, n)
	}
	if !res.Converged {
		t.Error("not marked converged")
	}
	// Eigenvector concentrates on the last coordinate.
	if math.Abs(math.Abs(x[n-1])-1) > 1e-3 {
		t.Errorf("eigenvector tail %g, want ~1", x[n-1])
	}
	// Zero start vector rejected.
	if _, _, err := PowerIterationCtx(context.Background(), Default(a), make([]float64, n), 1e-10, 10); err == nil {
		t.Error("zero start accepted")
	}
}

func TestCGZeroRHS(t *testing.T) {
	a, _, _ := spdSystem(100, 3, 7)
	b := make([]float64, 100)
	x := make([]float64, 100)
	res, err := CGCtx(context.Background(), Default(a), b, x, 1e-12, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("zero system should converge immediately")
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("solution of A x = 0 from x0 = 0 must stay 0")
		}
	}
}

// TestIterationsCountProducts holds every stepper-backed solver to one
// convention: Iterations is the number of completed iterations, counted
// here through a wrapping SpMV. Jacobi and power iteration make one
// product per iteration, CG one more for the initial residual, and GMRES
// one per Arnoldi step plus a residual product of x per restart cycle.
func TestIterationsCountProducts(t *testing.T) {
	spd, spdB, _ := spdSystem(300, 5, 1)
	nonsym, nonsymB, _ := nonsymSystem(300, 7)
	diag := &sparse.COO{Rows: 20, Cols: 20}
	for i := 0; i < 19; i++ {
		diag.Add(i, i, float64(i+1))
	}
	diag.Add(19, 19, 60) // a well separated dominant eigenvalue
	diagA, _ := diag.ToCSR()
	ctx := context.Background()
	perProduct := func(all, _ int) int { return all }
	afterResidual := func(all, _ int) int { return all - 1 }
	arnoldi := func(all, ofX int) int { return all - ofX }
	power := func(maxIter int) func(SpMV, []float64) (Result, error) {
		return func(mul SpMV, x []float64) (Result, error) {
			ones(x)
			_, res, err := PowerIterationCtx(ctx, mul, x, 1e-10, maxIter)
			return res, err
		}
	}

	// want maps (all products, products of x itself) to the expected
	// Iterations; the "/max" cases run out of budget.
	cases := []struct {
		name  string
		a     *sparse.CSR
		solve func(mul SpMV, x []float64) (Result, error)
		want  func(all, ofX int) int
	}{
		{"cg", spd, func(mul SpMV, x []float64) (Result, error) {
			return CGCtx(ctx, mul, spdB, x, 1e-10, 0)
		}, afterResidual},
		{"cg/max3", spd, func(mul SpMV, x []float64) (Result, error) {
			return CGCtx(ctx, mul, spdB, x, 1e-10, 3)
		}, afterResidual},
		{"jacobi", spd, func(mul SpMV, x []float64) (Result, error) {
			return JacobiCtx(ctx, spd, mul, spdB, x, 1e-10, 0)
		}, perProduct},
		{"jacobi/max3", spd, func(mul SpMV, x []float64) (Result, error) {
			return JacobiCtx(ctx, spd, mul, spdB, x, 1e-10, 3)
		}, perProduct},
		{"power", diagA, power(0), perProduct},
		{"power/max3", diagA, power(3), perProduct},
		{"gmres5", nonsym, func(mul SpMV, x []float64) (Result, error) {
			return GMRESCtx(ctx, mul, nonsymB, x, 1e-10, 5, 0)
		}, arnoldi},
		{"gmres5/max3", nonsym, func(mul SpMV, x []float64) (Result, error) {
			return GMRESCtx(ctx, mul, nonsymB, x, 1e-10, 5, 3)
		}, arnoldi},
		{"gmres5/max12", nonsym, func(mul SpMV, x []float64) (Result, error) {
			return GMRESCtx(ctx, mul, nonsymB, x, 1e-10, 5, 12)
		}, arnoldi},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x := make([]float64, tc.a.Rows)
			all, ofX := 0, 0
			mul := func(v, u []float64) {
				all++
				if &v[0] == &x[0] {
					ofX++
				}
				tc.a.MulVec(v, u)
			}
			res, err := tc.solve(mul, x)
			if budget := strings.Contains(tc.name, "/max"); budget != errors.Is(err, ErrNotConverged) || !budget && err != nil {
				t.Fatalf("converged %t, err %v", res.Converged, err)
			}
			if want := tc.want(all, ofX); res.Iterations != want {
				t.Errorf("Iterations = %d after %d products (%d of x), want %d", res.Iterations, all, ofX, want)
			}
		})
	}
}

func ones(x []float64) {
	for i := range x {
		x[i] = 1
	}
}
