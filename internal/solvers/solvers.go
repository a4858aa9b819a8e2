// Package solvers provides the iterative solvers that SpMV lives inside
// ("SpMV is an important computational kernel in sparse linear system
// solvers" — the paper's opening sentence): conjugate gradient for SPD
// systems, restarted GMRES and BiCGSTAB for general square systems, Jacobi
// iteration for diagonally dominant ones, power iteration for dominant
// eigenpairs, and PageRank.
//
// Every solver but BiCGSTAB is written once, as a Stepper (step.go): the
// solve's state stays resident and each Step advances it one iteration,
// multiplying through an injected executor. The serving layer drives the
// steppers directly; the batch forms (CGCtx, JacobiCtx, GMRESCtx,
// PowerIterationCtx) are the same steppers run to completion by run.
// Steppers allocate their workspace at construction, so a Step allocates
// nothing of its own.
package solvers

import (
	"context"
	"errors"
	"fmt"
	"math"

	"spmvtune/internal/errdefs"
	"spmvtune/internal/sparse"
)

// SpMV is the matrix-vector product backend: it must compute u = A*v.
type SpMV func(v, u []float64)

// Default returns the sequential reference backend for a.
func Default(a *sparse.CSR) SpMV {
	return func(v, u []float64) { a.MulVec(v, u) }
}

// Result reports a solve's outcome: a batch solve's final Status.
type Result = Status

// ErrNotConverged is wrapped by solver errors when the iteration budget
// runs out.
var ErrNotConverged = errors.New("solvers: not converged")

// ErrBreakdown is returned when a Krylov recurrence hits a (near-)zero
// inner product and cannot continue.
var ErrBreakdown = errors.New("solvers: breakdown")

// checkCtx converts a done context into a typed cancellation error; every
// Step calls it before its products, so a deadline or cancel stops a solve
// within one SpMV. The returned error matches errdefs.ErrCanceled as well
// as the underlying context sentinel.
func checkCtx(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return errdefs.Canceled(err)
	}
	return nil
}

func dot(x, y []float64) float64 {
	y = y[:len(x)]
	s := 0.0
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

func norm2(x []float64) float64 { return math.Sqrt(dot(x, x)) }

// run steps s until it converges, fails (breakdown, cancellation), or has
// completed maxIter iterations.
func run(ctx context.Context, s Stepper, maxIter int) (Result, error) {
	st := s.Status()
	for !st.Converged && st.Iterations < maxIter {
		var err error
		if st, err = s.Step(ctx); err != nil {
			return st, err
		}
	}
	if !st.Converged {
		return st, fmt.Errorf("%w after %d iterations (residual %g)", ErrNotConverged, st.Iterations, st.Residual)
	}
	return st, nil
}

// CGCtx solves A x = b for SPD A by conjugate gradients with the given
// SpMV backend; maxIter <= 0 selects 10·n. x is the initial guess and
// receives the solution. Cancellation is checked once per iteration and the
// solve returns early with an error matching errdefs.ErrCanceled (x then
// holds the best iterate so far).
func CGCtx(ctx context.Context, mul SpMV, b, x []float64, tol float64, maxIter int) (Result, error) {
	if maxIter <= 0 {
		maxIter = 10 * len(b)
	}
	s, err := NewCGStepper(Lift(mul), b, x, tol)
	if err != nil {
		return Result{}, err
	}
	return run(ctx, s, maxIter)
}

// JacobiCtx solves A x = b for strictly diagonally dominant A; maxIter <= 0
// selects 10·n. It needs the matrix itself (for the diagonal), plus the
// SpMV backend for the products. See CGCtx for the cancellation contract.
func JacobiCtx(ctx context.Context, a *sparse.CSR, mul SpMV, b, x []float64, tol float64, maxIter int) (Result, error) {
	if maxIter <= 0 {
		maxIter = 10 * len(b)
	}
	s, err := NewJacobiStepper(a, Lift(mul), b, x, tol)
	if err != nil {
		return Result{}, err
	}
	return run(ctx, s, maxIter)
}

// GMRESCtx solves A x = b for general square A with restarted GMRES(m);
// restart <= 0 selects min(n, 30) and maxIter <= 0 selects 10·n Arnoldi
// steps. Cancellation is checked once per Arnoldi step (one SpMV each); x
// keeps the last restart's update.
func GMRESCtx(ctx context.Context, mul SpMV, b, x []float64, tol float64, restart, maxIter int) (Result, error) {
	s, err := NewGMRESStepper(Lift(mul), b, x, tol, restart, maxIter)
	if err != nil {
		return Result{}, err
	}
	return run(ctx, s, s.maxIter)
}

// PowerIterationCtx finds the dominant eigenvalue/eigenvector of A;
// maxIter <= 0 selects 1000. x is the starting vector (must be nonzero) and
// receives the eigenvector. See CGCtx for the cancellation contract.
func PowerIterationCtx(ctx context.Context, mul SpMV, x []float64, tol float64, maxIter int) (lambda float64, res Result, err error) {
	if maxIter <= 0 {
		maxIter = 1000
	}
	s, err := NewPowerStepper(Lift(mul), x, tol)
	if err != nil {
		return 0, Result{}, err
	}
	res, err = run(ctx, s, maxIter)
	return s.Lambda(), res, err
}

// BiCGSTABCtx solves A x = b for general square A; maxIter <= 0 selects
// 10·n. It has no stepper form. See CGCtx for the cancellation contract.
func BiCGSTABCtx(ctx context.Context, mul SpMV, b, x []float64, tol float64, maxIter int) (Result, error) {
	if len(b) != len(x) {
		return Result{}, fmt.Errorf("solvers: bicgstab: len(b)=%d != len(x)=%d", len(b), len(x))
	}
	n := len(b)
	if maxIter <= 0 {
		maxIter = 10 * n
	}
	x = x[:n]
	r := make([]float64, n)
	mul(x, r)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	rHat := append([]float64(nil), r...)
	v := make([]float64, n)
	p := make([]float64, n)
	s := make([]float64, n)
	t := make([]float64, n)
	rho, alpha, omega := 1.0, 1.0, 1.0
	bNorm := norm2(b)
	if bNorm == 0 {
		bNorm = 1
	}
	res := Result{}
	for res.Iterations = 0; res.Iterations < maxIter; res.Iterations++ {
		res.Residual = norm2(r) / bNorm
		if res.Residual <= tol {
			res.Converged = true
			return res, nil
		}
		if err := checkCtx(ctx); err != nil {
			return res, err
		}
		rhoNew := dot(rHat, r)
		if math.Abs(rhoNew) < 1e-300 {
			return res, fmt.Errorf("%w: rho vanished", ErrBreakdown)
		}
		beta := (rhoNew / rho) * (alpha / omega)
		rho = rhoNew
		for i := range p {
			p[i] = r[i] + beta*(p[i]-omega*v[i])
		}
		mul(p, v)
		den := dot(rHat, v)
		if math.Abs(den) < 1e-300 {
			return res, fmt.Errorf("%w: rHat^T v vanished", ErrBreakdown)
		}
		alpha = rho / den
		for i := range s {
			s[i] = r[i] - alpha*v[i]
		}
		if norm2(s)/bNorm <= tol {
			for i := range x {
				x[i] += alpha * p[i]
			}
			res.Iterations++
			res.Residual = norm2(s) / bNorm
			res.Converged = true
			return res, nil
		}
		mul(s, t)
		tt := dot(t, t)
		if tt < 1e-300 {
			return res, fmt.Errorf("%w: t vanished", ErrBreakdown)
		}
		omega = dot(t, s) / tt
		if math.Abs(omega) < 1e-300 {
			return res, fmt.Errorf("%w: omega vanished", ErrBreakdown)
		}
		for i := range x {
			x[i] += alpha*p[i] + omega*s[i]
			r[i] = s[i] - omega*t[i]
		}
	}
	res.Residual = norm2(r) / bNorm
	return res, fmt.Errorf("%w after %d iterations (residual %g)", ErrNotConverged, res.Iterations, res.Residual)
}
