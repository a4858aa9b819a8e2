package solvers

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"spmvtune/internal/sparse"
)

func nonsymSystem(n int, seed int64) (*sparse.CSR, []float64, []float64) {
	coo := &sparse.COO{Rows: n, Cols: n}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		coo.Add(i, i, 6)
		if i+1 < n {
			coo.Add(i, i+1, -1.5)
			coo.Add(i+1, i, -0.5)
		}
		if i+7 < n {
			coo.Add(i, i+7, -0.25)
		}
	}
	a, err := coo.ToCSR()
	if err != nil {
		panic(err)
	}
	xStar := make([]float64, n)
	for i := range xStar {
		xStar[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	a.MulVec(xStar, b)
	return a, b, xStar
}

func TestGMRESSolvesNonsymmetric(t *testing.T) {
	a, b, xStar := nonsymSystem(3000, 1)
	for _, restart := range []int{0, 10, 50} {
		x := make([]float64, len(b))
		res, err := GMRESCtx(context.Background(), Default(a), b, x, 1e-10, restart, 0)
		if err != nil {
			t.Fatalf("restart=%d: %v", restart, err)
		}
		if !res.Converged {
			t.Fatalf("restart=%d: not converged: %+v", restart, res)
		}
		if d := maxAbsDiff(x, xStar); d > 1e-6 {
			t.Errorf("restart=%d: max error %g", restart, d)
		}
	}
}

func TestGMRESAgreesWithBiCGSTAB(t *testing.T) {
	a, b, _ := nonsymSystem(800, 2)
	xg := make([]float64, len(b))
	if _, err := GMRESCtx(context.Background(), Default(a), b, xg, 1e-11, 40, 0); err != nil {
		t.Fatal(err)
	}
	xb := make([]float64, len(b))
	if _, err := BiCGSTABCtx(context.Background(), Default(a), b, xb, 1e-11, 0); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(xg, xb); d > 1e-6 {
		t.Errorf("solvers disagree by %g", d)
	}
}

func TestGMRESIterationBudget(t *testing.T) {
	a, b, _ := nonsymSystem(500, 3)
	x := make([]float64, len(b))
	_, err := GMRESCtx(context.Background(), Default(a), b, x, 1e-14, 5, 3)
	if !errors.Is(err, ErrNotConverged) {
		t.Errorf("want ErrNotConverged, got %v", err)
	}
}

func TestGMRESZeroRHS(t *testing.T) {
	a, _, _ := nonsymSystem(100, 4)
	b := make([]float64, 100)
	x := make([]float64, 100)
	res, err := GMRESCtx(context.Background(), Default(a), b, x, 1e-12, 10, 0)
	if err != nil || !res.Converged {
		t.Fatalf("zero system: %v %+v", err, res)
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("nonzero solution for zero system")
		}
	}
}

func TestGMRESExactAtFullDimension(t *testing.T) {
	// With restart >= n and exact arithmetic GMRES converges within n
	// steps; verify on a tiny well-conditioned system.
	a, b, xStar := nonsymSystem(40, 5)
	x := make([]float64, len(b))
	res, err := GMRESCtx(context.Background(), Default(a), b, x, 1e-12, 40, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 40 {
		t.Errorf("took %d iterations for a 40-dim system", res.Iterations)
	}
	if d := maxAbsDiff(x, xStar); d > 1e-8 {
		t.Errorf("max error %g", d)
	}
}
