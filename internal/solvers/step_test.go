package solvers

import (
	"context"
	"errors"
	"math"
	"testing"

	"spmvtune/internal/matgen"
	"spmvtune/internal/sparse"
)

func stepUntil(t *testing.T, s Stepper, maxSteps int) Status {
	t.Helper()
	st := s.Status()
	for i := 0; i < maxSteps && !st.Converged; i++ {
		var err error
		st, err = s.Step(context.Background())
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	return st
}

func TestCGStepperMatchesBatchCG(t *testing.T) {
	a, b, xStar := spdSystem(2000, 5, 1)
	tol := 1e-10

	xBatch := make([]float64, len(b))
	res, err := CGCtx(context.Background(), Default(a), b, xBatch, tol, 0)
	if err != nil {
		t.Fatal(err)
	}

	xStep := make([]float64, len(b))
	s, err := NewCGStepper(Lift(Default(a)), b, xStep, tol)
	if err != nil {
		t.Fatal(err)
	}
	st := stepUntil(t, s, 10*res.Iterations+10)
	if !st.Converged {
		t.Fatalf("stepper did not converge: %+v", st)
	}
	if st.Iterations != res.Iterations {
		t.Errorf("iterations: stepper %d, batch %d", st.Iterations, res.Iterations)
	}
	if d := maxAbsDiff(s.Solution(), xStar); d > 1e-6 {
		t.Errorf("max error %g", d)
	}
	// Step after convergence is a no-op.
	again, err := s.Step(context.Background())
	if err != nil || again != st {
		t.Errorf("post-convergence step changed state: %+v err=%v", again, err)
	}
}

func TestCGStepperBreakdownSticky(t *testing.T) {
	// -I is symmetric negative definite: p^T A p < 0 on the first step.
	coo := &sparse.COO{Rows: 4, Cols: 4}
	for i := 0; i < 4; i++ {
		coo.Add(i, i, -1)
	}
	a, _ := coo.ToCSR()
	b := []float64{1, 2, 3, 4}
	s, err := NewCGStepper(Lift(Default(a)), b, make([]float64, 4), 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(context.Background()); !errors.Is(err, ErrBreakdown) {
		t.Fatalf("want ErrBreakdown, got %v", err)
	}
	if _, err := s.Step(context.Background()); !errors.Is(err, ErrBreakdown) {
		t.Fatalf("breakdown not sticky, got %v", err)
	}
}

func TestCGStepperCancellation(t *testing.T) {
	a, b, _ := spdSystem(500, 5, 1)
	s, err := NewCGStepper(Lift(Default(a)), b, make([]float64, len(b)), 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	before := s.Status()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Step(ctx); err == nil {
		t.Fatal("want cancellation error")
	}
	if s.Status() != before {
		t.Errorf("canceled step mutated status: %+v -> %+v", before, s.Status())
	}
	// The solve resumes after cancellation.
	if _, err := s.Step(context.Background()); err != nil {
		t.Fatalf("resume after cancel: %v", err)
	}
	if s.Status().Iterations != before.Iterations+1 {
		t.Errorf("resume did not advance: %+v", s.Status())
	}
}

func TestCGStepperExecutorErrorPropagates(t *testing.T) {
	a, b, _ := spdSystem(100, 3, 1)
	boom := errors.New("device fault")
	calls := 0
	mul := func(ctx context.Context, v, u []float64) error {
		calls++
		if calls == 3 {
			return boom
		}
		Default(a)(v, u)
		return nil
	}
	s, err := NewCGStepper(mul, b, make([]float64, len(b)), 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	var stepErr error
	for i := 0; i < 5 && stepErr == nil; i++ {
		_, stepErr = s.Step(context.Background())
	}
	if !errors.Is(stepErr, boom) {
		t.Fatalf("executor error not propagated: %v", stepErr)
	}
	// Executor errors are transient: the stepper retries the same iteration.
	if _, err := s.Step(context.Background()); err != nil {
		t.Fatalf("retry after executor error: %v", err)
	}
}

func TestJacobiStepperMatchesBatch(t *testing.T) {
	a, b, xStar := spdSystem(1000, 5, 2)
	tol := 1e-10

	xBatch := make([]float64, len(b))
	res, err := JacobiCtx(context.Background(), a, Default(a), b, xBatch, tol, 0)
	if err != nil {
		t.Fatal(err)
	}

	s, err := NewJacobiStepper(a, Lift(Default(a)), b, make([]float64, len(b)), tol)
	if err != nil {
		t.Fatal(err)
	}
	st := stepUntil(t, s, 10*res.Iterations+10)
	if !st.Converged {
		t.Fatalf("stepper did not converge: %+v", st)
	}
	if d := maxAbsDiff(s.Solution(), xStar); d > 1e-6 {
		t.Errorf("max error %g", d)
	}
}

func TestJacobiStepperZeroDiagonal(t *testing.T) {
	coo := &sparse.COO{Rows: 2, Cols: 2}
	coo.Add(0, 1, 1)
	coo.Add(1, 0, 1)
	a, _ := coo.ToCSR()
	_, err := NewJacobiStepper(a, Lift(Default(a)), []float64{1, 1}, []float64{0, 0}, 1e-10)
	if !errors.Is(err, ErrBreakdown) {
		t.Fatalf("want ErrBreakdown at construction, got %v", err)
	}
}

// TestJacobiRejectsShapeMismatch: a right-hand side longer than the matrix
// has rows used to be accepted, and the sweep divided by diagonal entries it
// never read (x came back [0.25 0.25 0.25 +Inf +Inf]). Both the stepper
// and the batch form refuse it up front, as they refuse len(b) != len(x).
func TestJacobiRejectsShapeMismatch(t *testing.T) {
	coo := &sparse.COO{Rows: 3, Cols: 3}
	for i := 0; i < 3; i++ {
		coo.Add(i, i, 4)
	}
	a, err := coo.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{1, 1, 1, 1, 1}
	const want = "solvers: jacobi: len(b)=5 != matrix 3x3"
	if _, err := NewJacobiStepper(a, Lift(Default(a)), b, make([]float64, 5), 1e-10); err == nil || err.Error() != want {
		t.Errorf("NewJacobiStepper: err = %v, want %q", err, want)
	}
	x := make([]float64, 5)
	if _, err := JacobiCtx(context.Background(), a, Default(a), b, x, 1e-10, 0); err == nil || err.Error() != want {
		t.Errorf("JacobiCtx: err = %v, want %q", err, want)
	}
	for i, v := range x {
		if v != 0 {
			t.Errorf("x[%d] = %v after a rejected solve, want the untouched 0", i, v)
		}
	}
}

func TestGMRESStepperSolves(t *testing.T) {
	a, b, xStar := spdSystem(800, 7, 3)
	tol := 1e-10
	s, err := NewGMRESStepper(Lift(Default(a)), b, make([]float64, len(b)), tol, 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := stepUntil(t, s, 200)
	if !st.Converged {
		t.Fatalf("stepper did not converge: %+v", st)
	}
	if d := maxAbsDiff(s.Solution(), xStar); d > 1e-6 {
		t.Errorf("max error %g", d)
	}
	// True residual agrees with the recurrence residual.
	r := make([]float64, len(b))
	Default(a)(s.Solution(), r)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	if rel := norm2(r) / norm2(b); rel > 10*tol {
		t.Errorf("true relative residual %g", rel)
	}
}

// TestGMRESStepperBudget: the Arnoldi loop stops at the iteration budget
// mid-cycle, and a Step with the budget spent multiplies nothing.
func TestGMRESStepperBudget(t *testing.T) {
	a, b, _ := nonsymSystem(300, 7)
	products := 0
	mul := func(ctx context.Context, v, u []float64) error {
		products++
		a.MulVec(v, u)
		return nil
	}
	s, err := NewGMRESStepper(mul, b, make([]float64, len(b)), 1e-12, 30, 7)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Step(context.Background())
	if err != nil || st.Iterations != 7 || st.Converged || products != 8 {
		t.Fatalf("first step: %+v err=%v after %d products, want 7 iterations from 8", st, err, products)
	}
	again, err := s.Step(context.Background())
	if err != nil || again != st || products != 8 {
		t.Errorf("step past the budget: %+v err=%v after %d products, want %+v from 8", again, err, products, st)
	}
}

func TestPowerStepperFindsDominantEigenvalue(t *testing.T) {
	// Diagonal matrix: dominant eigenvalue is the largest entry.
	coo := &sparse.COO{Rows: 50, Cols: 50}
	for i := 0; i < 50; i++ {
		coo.Add(i, i, float64(i+1))
	}
	a, _ := coo.ToCSR()
	x := make([]float64, 50)
	for i := range x {
		x[i] = 1
	}
	s, err := NewPowerStepper(Lift(Default(a)), x, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	st := stepUntil(t, s, 5000)
	if !st.Converged {
		t.Fatalf("did not converge: %+v", st)
	}
	if math.Abs(s.Lambda()-50) > 1e-6 {
		t.Errorf("lambda = %g, want 50", s.Lambda())
	}
}

func TestPageRankStepperUniformChain(t *testing.T) {
	// Directed 4-cycle: column-stochastic T is a permutation, so the
	// stationary distribution is uniform.
	n := 4
	coo := &sparse.COO{Rows: n, Cols: n}
	for j := 0; j < n; j++ {
		coo.Add((j+1)%n, j, 1)
	}
	a, _ := coo.ToCSR()
	s, err := NewPageRankStepper(Lift(Default(a)), make([]float64, n), 0.85, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	st := stepUntil(t, s, 1000)
	if !st.Converged {
		t.Fatalf("did not converge: %+v", st)
	}
	sum := 0.0
	for _, v := range s.Solution() {
		sum += v
		if math.Abs(v-0.25) > 1e-9 {
			t.Errorf("rank %g, want 0.25", v)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("ranks sum to %g", sum)
	}
}

func TestPageRankStepperRejectsBadDamping(t *testing.T) {
	if _, err := NewPageRankStepper(Lift(func(v, u []float64) {}), make([]float64, 4), 0, 1e-9); err == nil {
		t.Error("damping 0 accepted")
	}
	if _, err := NewPageRankStepper(Lift(func(v, u []float64) {}), make([]float64, 4), 1.5, 1e-9); err == nil {
		t.Error("damping 1.5 accepted")
	}
}

// TestStepperZeroAllocPerStep holds every stepper to the package's promise:
// a Step allocates nothing of its own. A negative tol never converges, so
// every measured Step does its full work.
func TestStepperZeroAllocPerStep(t *testing.T) {
	a, b, _ := spdSystem(300, 5, 4)
	mul := Lift(Default(a))
	n := len(b)
	start := func() []float64 {
		x := make([]float64, n)
		ones(x)
		return x
	}
	for _, tc := range []struct {
		name string
		new  func() (Stepper, error)
	}{
		{"cg", func() (Stepper, error) { return NewCGStepper(mul, b, make([]float64, n), -1) }},
		{"jacobi", func() (Stepper, error) { return NewJacobiStepper(a, mul, b, make([]float64, n), -1) }},
		{"gmres5", func() (Stepper, error) { return NewGMRESStepper(mul, b, make([]float64, n), -1, 5, 1<<30) }},
		{"gmres30", func() (Stepper, error) { return NewGMRESStepper(mul, b, make([]float64, n), -1, 30, 1<<30) }},
		{"power", func() (Stepper, error) { return NewPowerStepper(mul, start(), -1) }},
		{"pagerank", func() (Stepper, error) { return NewPageRankStepper(mul, make([]float64, n), 0.85, -1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := tc.new()
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			if _, err := s.Step(ctx); err != nil { // pay lazy init outside the measurement
				t.Fatal(err)
			}
			before := s.Status().Iterations
			allocs := testing.AllocsPerRun(50, func() {
				if _, err := s.Step(ctx); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("Step allocates %v times per run, want 0", allocs)
			}
			if st := s.Status(); st.Converged || st.Iterations < before+51 {
				t.Errorf("measured Steps did not all iterate: %d -> %+v", before, st)
			}
		})
	}
}

// BenchmarkStepperStep times one Step of each stepper on the 120x120
// Poisson grid that bench/'s solve_iterate workload serves, multiplying
// with the sequential reference. A negative tol never converges; the
// stepper is rebuilt, off the clock, every 200 iterations so no run drifts
// into underflow.
func BenchmarkStepperStep(b *testing.B) {
	a := matgen.Poisson2D(120)
	mul := Lift(a.MulVec)
	n := a.Rows
	rhs := make([]float64, n)
	ones(rhs)
	start := func() []float64 {
		x := make([]float64, n)
		ones(x)
		return x
	}
	for _, tc := range []struct {
		name string
		new  func() (Stepper, error)
	}{
		{"cg", func() (Stepper, error) { return NewCGStepper(mul, rhs, make([]float64, n), -1) }},
		{"jacobi", func() (Stepper, error) { return NewJacobiStepper(a, mul, rhs, make([]float64, n), -1) }},
		{"gmres30", func() (Stepper, error) { return NewGMRESStepper(mul, rhs, make([]float64, n), -1, 30, 1<<30) }},
		{"power", func() (Stepper, error) { return NewPowerStepper(mul, start(), -1) }},
		{"pagerank", func() (Stepper, error) { return NewPageRankStepper(mul, make([]float64, n), 0.85, -1) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			ctx := context.Background()
			var s Stepper
			for i := 0; i < b.N; i++ {
				if s == nil || s.Status().Iterations >= 200 {
					b.StopTimer()
					var err error
					if s, err = tc.new(); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				if _, err := s.Step(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
