package solvers

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"spmvtune/internal/matgen"
	"spmvtune/internal/sparse"
)

// referenceCGStep is CGStepper.Step as it was before r·r was folded into
// the x/r update: a separate dot(r, r) walk after it. It is the oracle of
// TestCGStepperBitsUnchanged.
func referenceCGStep(s *CGStepper, ctx context.Context) (Status, error) {
	if s.failed != nil {
		return s.st, s.failed
	}
	if s.st.Converged {
		return s.st, nil
	}
	if err := checkCtx(ctx); err != nil {
		return s.st, err
	}
	if !s.initialized {
		if err := s.init(ctx); err != nil {
			return s.st, err
		}
		if s.st.Residual <= s.tol {
			s.st.Converged = true
			return s.st, nil
		}
	}
	if err := s.mul(ctx, s.p, s.ap); err != nil {
		return s.st, err
	}
	pap := dot(s.p, s.ap)
	if pap <= 0 {
		s.failed = fmt.Errorf("%w: p^T A p = %g (matrix not SPD?)", ErrBreakdown, pap)
		return s.st, s.failed
	}
	alpha := s.rr / pap
	for i := range s.x {
		s.x[i] += alpha * s.p[i]
		s.r[i] -= alpha * s.ap[i]
	}
	rrNew := dot(s.r, s.r)
	beta := rrNew / s.rr
	s.rr = rrNew
	for i := range s.p {
		s.p[i] = s.r[i] + beta*s.p[i]
	}
	s.st.Iterations++
	s.st.Residual = math.Sqrt(s.rr) / s.bNorm
	if s.st.Residual <= s.tol {
		s.st.Converged = true
	}
	return s.st, nil
}

// randomSPD is a seeded symmetric matrix with random off-diagonal values
// made SPD by strict diagonal dominance.
func randomSPD(n, perRow int, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	coo := &sparse.COO{Rows: n, Cols: n}
	diag := make([]float64, n)
	for i := 0; i < n; i++ {
		for k := 0; k < perRow; k++ {
			j := rng.Intn(n)
			if j == i {
				continue
			}
			w := rng.NormFloat64()
			coo.Add(i, j, w)
			coo.Add(j, i, w)
			diag[i] += math.Abs(w)
			diag[j] += math.Abs(w)
		}
	}
	for i, d := range diag {
		coo.Add(i, i, d+0.1+rng.Float64())
	}
	a, err := coo.ToCSR()
	if err != nil {
		panic(err)
	}
	return a
}

// TestCGStepperBitsUnchanged runs Step and its pre-fold copy side by side
// for 300 iterations: the iterate and the residual must agree bit for bit
// after every one.
func TestCGStepperBitsUnchanged(t *testing.T) {
	for _, tc := range []struct {
		name string
		a    *sparse.CSR
	}{
		{"poisson40", matgen.Poisson2D(40)},
		{"random-spd", randomSPD(900, 4, 28)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			n := tc.a.Rows
			b := make([]float64, n)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			mul := Lift(Default(tc.a))
			got, err := NewCGStepper(mul, b, make([]float64, n), 1e-300)
			if err != nil {
				t.Fatal(err)
			}
			want, err := NewCGStepper(mul, b, make([]float64, n), 1e-300)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			for step := 0; step < 300; step++ {
				gst, gerr := got.Step(ctx)
				wst, werr := referenceCGStep(want, ctx)
				if fmt.Sprint(gerr) != fmt.Sprint(werr) {
					t.Fatalf("step %d: error %v, reference %v", step, gerr, werr)
				}
				if gst.Iterations != wst.Iterations || gst.Converged != wst.Converged ||
					math.Float64bits(gst.Residual) != math.Float64bits(wst.Residual) {
					t.Fatalf("step %d: status %+v, reference %+v", step, gst, wst)
				}
				for i := range got.x {
					if math.Float64bits(got.x[i]) != math.Float64bits(want.x[i]) {
						t.Fatalf("step %d: x[%d] = %v, reference %v", step, i, got.x[i], want.x[i])
					}
				}
			}
			if got.st.Iterations != 300 {
				t.Errorf("compared %d iterations, want 300 (%+v)", got.st.Iterations, got.st)
			}
		})
	}
}
