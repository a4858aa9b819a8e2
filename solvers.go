package spmvtune

import (
	"context"

	"spmvtune/internal/cpu"
	"spmvtune/internal/reorder"
	"spmvtune/internal/solvers"
)

// Iterative solvers with injectable SpMV backends — the applications the
// paper's introduction motivates SpMV with. Use PrepareCPU (or DefaultSpMV)
// to obtain a backend.

type (
	// SpMV is a matrix-vector product backend: it computes u = A*v.
	SpMV = solvers.SpMV
	// SolveResult reports a solver's outcome.
	SolveResult = solvers.Result
)

// DefaultSpMV returns the sequential reference backend.
func DefaultSpMV(a *Matrix) SpMV { return solvers.Default(a) }

// SolveCG solves A x = b for symmetric positive-definite A by conjugate
// gradients. x holds the initial guess and receives the solution.
func SolveCG(mul SpMV, b, x []float64, tol float64, maxIter int) (SolveResult, error) {
	return solvers.CGCtx(context.Background(), mul, b, x, tol, maxIter)
}

// SolveBiCGSTAB solves A x = b for general square A.
func SolveBiCGSTAB(mul SpMV, b, x []float64, tol float64, maxIter int) (SolveResult, error) {
	return solvers.BiCGSTABCtx(context.Background(), mul, b, x, tol, maxIter)
}

// SolveGMRES solves A x = b for general square A with restarted GMRES(m);
// restart <= 0 selects min(n, 30).
func SolveGMRES(mul SpMV, b, x []float64, tol float64, restart, maxIter int) (SolveResult, error) {
	return solvers.GMRESCtx(context.Background(), mul, b, x, tol, restart, maxIter)
}

// SolveJacobi solves A x = b for strictly diagonally dominant A.
func SolveJacobi(a *Matrix, mul SpMV, b, x []float64, tol float64, maxIter int) (SolveResult, error) {
	return solvers.JacobiCtx(context.Background(), a, mul, b, x, tol, maxIter)
}

// DominantEigen runs power iteration for the dominant eigenpair; x is the
// starting vector and receives the eigenvector.
func DominantEigen(mul SpMV, x []float64, tol float64, maxIter int) (float64, SolveResult, error) {
	return solvers.PowerIterationCtx(context.Background(), mul, x, tol, maxIter)
}

// Context-aware solver variants: each checks cancellation once per
// iteration and returns early with an error matching ErrCanceled, leaving
// the best iterate so far in x.

// SolveCGCtx is SolveCG under a context.
func SolveCGCtx(ctx context.Context, mul SpMV, b, x []float64, tol float64, maxIter int) (SolveResult, error) {
	return solvers.CGCtx(ctx, mul, b, x, tol, maxIter)
}

// SolveBiCGSTABCtx is SolveBiCGSTAB under a context.
func SolveBiCGSTABCtx(ctx context.Context, mul SpMV, b, x []float64, tol float64, maxIter int) (SolveResult, error) {
	return solvers.BiCGSTABCtx(ctx, mul, b, x, tol, maxIter)
}

// SolveGMRESCtx is SolveGMRES under a context.
func SolveGMRESCtx(ctx context.Context, mul SpMV, b, x []float64, tol float64, restart, maxIter int) (SolveResult, error) {
	return solvers.GMRESCtx(ctx, mul, b, x, tol, restart, maxIter)
}

// SolveJacobiCtx is SolveJacobi under a context.
func SolveJacobiCtx(ctx context.Context, a *Matrix, mul SpMV, b, x []float64, tol float64, maxIter int) (SolveResult, error) {
	return solvers.JacobiCtx(ctx, a, mul, b, x, tol, maxIter)
}

// DominantEigenCtx is DominantEigen under a context.
func DominantEigenCtx(ctx context.Context, mul SpMV, x []float64, tol float64, maxIter int) (float64, SolveResult, error) {
	return solvers.PowerIterationCtx(ctx, mul, x, tol, maxIter)
}

// SpMM computes the sparse-times-dense-block product U = A*X for k dense
// right-hand sides stored row-major (X[c*k+j] = column j of row c),
// amortizing every matrix-entry load over all k vectors.
func SpMM(a *Matrix, x []float64, k int, u []float64, workers int) error {
	return cpu.MulMat(a, x, k, u, workers)
}

// Reordering ------------------------------------------------------------

// RCM returns the reverse Cuthill-McKee permutation of the matrix
// (perm[new] = old). The framework's coarse binning assumes adjacent rows
// are similar; RCM restores that locality for arbitrarily permuted inputs.
func RCM(a *Matrix) []int { return reorder.RCM(a) }

// PermuteMatrix applies a symmetric permutation (rows and, for square
// matrices, columns): B[i,j] = A[perm[i], perm[j]].
func PermuteMatrix(a *Matrix, perm []int) *Matrix { return reorder.Permute(a, perm) }

// PermuteVec gathers x into permuted numbering; UnpermuteVec undoes it.
func PermuteVec(x []float64, perm []int) []float64   { return reorder.PermuteVec(x, perm) }
func UnpermuteVec(x []float64, perm []int) []float64 { return reorder.UnpermuteVec(x, perm) }
