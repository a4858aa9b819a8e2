package solvers

// The solvers as resident state machines. A Stepper holds a solve's state
// — iterate, residual recurrences, Krylov workspace — between calls and
// advances it one iteration per Step. This is the shape a serving layer
// needs: the expensive per-structure work (tuning plan, scratch buffers)
// stays pinned across iterations while each advance is one cheap,
// cancellable call. Every SpMV goes through an injected SpMVCtx executor, so
// the auto-tuned guarded execution path (or any other backend) plugs in
// directly and its errors propagate out of Step instead of being swallowed.
// The batch solvers are these steppers driven by run (solvers.go).
//
// Steppers allocate all workspace at construction: Step performs no
// allocations of its own beyond what the injected executor does, so a
// long-running solve has a flat memory profile.
//
// Every vector pass is written in one idiom: the slices are hoisted out of
// the stepper into locals and resliced once to the iterate's length, so a
// store cannot make the compiler reload a slice header through the stepper
// and each index is proved in bounds once, before the loop. Each element's
// statements keep the arithmetic, order and shape they had before the
// idiom: Go may fuse x*y + z into one FMA on some targets, so reshaping a
// statement could change bits (TestStepperBitsUnchanged,
// TestCGStepperBitsUnchanged).

import (
	"context"
	"fmt"
	"math"

	"spmvtune/internal/sparse"
)

// SpMVCtx is a context-aware, fallible SpMV executor: it computes u = A*v,
// may be canceled through ctx, and reports execution failures instead of
// panicking. The serving layer injects the guarded plan executor here; the
// plain in-process backends lift via Lift.
type SpMVCtx func(ctx context.Context, v, u []float64) error

// Lift adapts a plain SpMV backend into an SpMVCtx (no cancellation
// mid-product, no failure mode — the reference backends are total).
func Lift(mul SpMV) SpMVCtx {
	return func(_ context.Context, v, u []float64) error {
		mul(v, u)
		return nil
	}
}

// Status is a point-in-time snapshot of a resident solve.
type Status struct {
	// Iterations is the number of completed iterations: one per SpMV for
	// Jacobi, power iteration and PageRank; one per SpMV after the initial
	// residual product for CG; one per Arnoldi product (not counting the
	// residual product at each restart) for GMRES.
	Iterations int
	// Residual is the current convergence measure: relative residual
	// ||b-Ax||/||b|| for the linear solvers, eigenvalue drift for power
	// iteration, L1 rank change for PageRank.
	Residual float64
	// Converged reports the tolerance has been met; further Steps are
	// no-ops.
	Converged bool
}

// Stepper advances a resident iterative solve one iteration at a time.
// Implementations are not safe for concurrent use; the caller serializes
// Steps (the serving layer holds a per-session lock).
type Stepper interface {
	// Step advances by one iteration (one or more SpMVs through the
	// injected executor) and returns the new status. Once Converged, Step
	// returns the final status without work. A cancellation or executor
	// error leaves the iterate at the last completed iteration; a
	// breakdown error is sticky — the solve cannot continue.
	Step(ctx context.Context) (Status, error)
	// Status reports progress without advancing.
	Status() Status
	// Solution returns the current iterate. The slice is the solver's
	// live buffer, not a copy: it is only safe to read between Steps.
	Solution() []float64
}

// ---------------------------------------------------------------- CG ----

// CGStepper is conjugate gradients with resident state: one Step is one
// CG iteration (one SpMV). The first Step additionally pays the residual
// initialization SpMV (r = b - A·x0).
type CGStepper struct {
	mul         SpMVCtx
	b, x        []float64
	r, p, ap    []float64
	rr, bNorm   float64
	tol         float64
	st          Status
	initialized bool
	failed      error
}

// NewCGStepper prepares a CG solve of A x = b for SPD A. x is the initial
// guess and remains the live iterate (Solution aliases it). All workspace
// is allocated here.
func NewCGStepper(mul SpMVCtx, b, x []float64, tol float64) (*CGStepper, error) {
	if len(b) != len(x) {
		return nil, fmt.Errorf("solvers: cg: len(b)=%d != len(x)=%d", len(b), len(x))
	}
	n := len(b)
	s := &CGStepper{
		mul: mul, b: b, x: x, tol: tol,
		r: make([]float64, n), p: make([]float64, n), ap: make([]float64, n),
	}
	s.bNorm = norm2(b)
	if s.bNorm == 0 {
		s.bNorm = 1
	}
	return s, nil
}

func (s *CGStepper) Status() Status      { return s.st }
func (s *CGStepper) Solution() []float64 { return s.x }

func (s *CGStepper) init(ctx context.Context) error {
	if err := s.mul(ctx, s.x, s.r); err != nil {
		return err
	}
	r := s.r
	b := s.b[:len(r)]
	for i := range r {
		r[i] = b[i] - r[i]
	}
	copy(s.p, r)
	s.rr = dot(r, r)
	s.st.Residual = math.Sqrt(s.rr) / s.bNorm
	s.initialized = true
	return nil
}

// Step performs one CG iteration. Convergence is checked against the
// recurrence residual after the update, so the trajectory (iteration
// count, residuals) matches CGCtx on the same system.
func (s *CGStepper) Step(ctx context.Context) (Status, error) {
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
	// r·r accumulates as r is updated, i-ascending like dot(r, r): the same
	// bits without another walk over r.
	x := s.x
	n := len(x)
	r, p, ap := s.r[:n], s.p[:n], s.ap[:n]
	rrNew := 0.0
	for i := range x {
		x[i] += alpha * p[i]
		r[i] -= alpha * ap[i]
		rrNew += r[i] * r[i]
	}
	beta := rrNew / s.rr
	s.rr = rrNew
	for i := range p {
		p[i] = r[i] + beta*p[i]
	}
	s.st.Iterations++
	s.st.Residual = math.Sqrt(s.rr) / s.bNorm
	if s.st.Residual <= s.tol {
		s.st.Converged = true
	}
	return s.st, nil
}

// ------------------------------------------------------------ Jacobi ----

// JacobiStepper is Jacobi iteration with resident state: one Step is one
// sweep (one SpMV). It needs the matrix itself for the diagonal.
type JacobiStepper struct {
	mul    SpMVCtx
	b, x   []float64
	diag   []float64
	ax     []float64
	bNorm  float64
	tol    float64
	st     Status
	failed error
}

// NewJacobiStepper prepares a Jacobi solve of A x = b for strictly
// diagonally dominant A. A zero diagonal is a construction-time breakdown.
func NewJacobiStepper(a *sparse.CSR, mul SpMVCtx, b, x []float64, tol float64) (*JacobiStepper, error) {
	if len(b) != len(x) {
		return nil, fmt.Errorf("solvers: jacobi: len(b)=%d != len(x)=%d", len(b), len(x))
	}
	n := len(b)
	if a.Rows != n || a.Cols != n {
		return nil, fmt.Errorf("solvers: jacobi: len(b)=%d != matrix %dx%d", n, a.Rows, a.Cols)
	}
	s := &JacobiStepper{
		mul: mul, b: b, x: x, tol: tol,
		diag: make([]float64, n), ax: make([]float64, n),
	}
	for i := range s.diag {
		d := a.At(i, i)
		if d == 0 {
			return nil, fmt.Errorf("%w: zero diagonal at row %d", ErrBreakdown, i)
		}
		s.diag[i] = d
	}
	s.bNorm = norm2(b)
	if s.bNorm == 0 {
		s.bNorm = 1
	}
	return s, nil
}

func (s *JacobiStepper) Status() Status      { return s.st }
func (s *JacobiStepper) Solution() []float64 { return s.x }

func (s *JacobiStepper) Step(ctx context.Context) (Status, error) {
	if s.failed != nil {
		return s.st, s.failed
	}
	if s.st.Converged {
		return s.st, nil
	}
	if err := checkCtx(ctx); err != nil {
		return s.st, err
	}
	if err := s.mul(ctx, s.x, s.ax); err != nil {
		return s.st, err
	}
	x := s.x
	n := len(x)
	b, ax, diag := s.b[:n], s.ax[:n], s.diag[:n]
	rn := 0.0
	for i := range x {
		r := b[i] - ax[i]
		rn += r * r
		x[i] += r / diag[i]
	}
	s.st.Iterations++
	s.st.Residual = math.Sqrt(rn) / s.bNorm
	if s.st.Residual <= s.tol {
		s.st.Converged = true
	}
	return s.st, nil
}

// ------------------------------------------------------------- GMRES ----

// GMRESStepper is restarted GMRES(m) with resident state: one Step is one
// restart cycle — the residual product, up to restart Arnoldi steps (one
// SpMV each, never past the iteration budget) and the least-squares update
// of x. Arnoldi builds an orthonormal Krylov basis and Givens rotations
// triangularize the Hessenberg matrix as it grows. Status.Iterations counts
// Arnoldi steps. All Krylov workspace is allocated once at construction and
// reused across cycles.
type GMRESStepper struct {
	mul     SpMVCtx
	b, x    []float64
	restart int
	maxIter int
	tol     float64

	r, w   []float64
	v      [][]float64
	h      [][]float64
	cs, sn []float64
	g, y   []float64

	bNorm  float64
	st     Status
	failed error
}

// NewGMRESStepper prepares a GMRES solve of A x = b for general square A.
// restart <= 0 selects min(n, 30); maxIter is the budget of Arnoldi steps
// over the whole solve, and <= 0 selects 10·n.
func NewGMRESStepper(mul SpMVCtx, b, x []float64, tol float64, restart, maxIter int) (*GMRESStepper, error) {
	if len(b) != len(x) {
		return nil, fmt.Errorf("solvers: gmres: len(b)=%d != len(x)=%d", len(b), len(x))
	}
	n := len(b)
	if restart <= 0 {
		restart = 30
	}
	if restart > n {
		restart = n
	}
	if maxIter <= 0 {
		maxIter = 10 * n
	}
	s := &GMRESStepper{
		mul: mul, b: b, x: x, tol: tol, restart: restart, maxIter: maxIter,
		r: make([]float64, n), w: make([]float64, n),
		v:  make([][]float64, restart+1),
		h:  make([][]float64, restart),
		cs: make([]float64, restart), sn: make([]float64, restart),
		g: make([]float64, restart+1), y: make([]float64, restart),
	}
	for i := range s.v {
		s.v[i] = make([]float64, n)
	}
	for j := range s.h {
		s.h[j] = make([]float64, restart+1)
	}
	s.bNorm = norm2(b)
	if s.bNorm == 0 {
		s.bNorm = 1
	}
	return s, nil
}

func (s *GMRESStepper) Status() Status      { return s.st }
func (s *GMRESStepper) Solution() []float64 { return s.x }

func (s *GMRESStepper) Step(ctx context.Context) (Status, error) {
	if s.failed != nil {
		return s.st, s.failed
	}
	if s.st.Converged || s.st.Iterations >= s.maxIter {
		return s.st, nil
	}
	// r = b - A x.
	if err := s.mul(ctx, s.x, s.r); err != nil {
		return s.st, err
	}
	r := s.r
	n := len(r)
	w, b := s.w[:n], s.b[:n]
	for i := range r {
		r[i] = b[i] - r[i]
	}
	beta := norm2(r)
	s.st.Residual = beta / s.bNorm
	if s.st.Residual <= s.tol {
		s.st.Converged = true
		return s.st, nil
	}
	v0 := s.v[0][:n]
	for i := range r {
		v0[i] = r[i] / beta
	}
	clear(s.g)
	s.g[0] = beta

	j := 0
	for ; j < s.restart && s.st.Iterations < s.maxIter; j++ {
		if err := checkCtx(ctx); err != nil {
			return s.st, err
		}
		if err := s.mul(ctx, s.v[j], s.w); err != nil {
			return s.st, err
		}
		s.st.Iterations++
		// Modified Gram-Schmidt into the preallocated Hessenberg column.
		col := s.h[j][:j+2]
		for i := 0; i <= j; i++ {
			vi := s.v[i][:n]
			hi := dot(w, vi)
			col[i] = hi
			for k := range w {
				w[k] -= hi * vi[k]
			}
		}
		wn := norm2(w)
		col[j+1] = wn
		if wn > 1e-300 {
			next := s.v[j+1][:n]
			for k := range w {
				next[k] = w[k] / wn
			}
		}
		for i := 0; i < j; i++ {
			col[i], col[i+1] = s.cs[i]*col[i]+s.sn[i]*col[i+1], -s.sn[i]*col[i]+s.cs[i]*col[i+1]
		}
		denom := math.Hypot(col[j], col[j+1])
		if denom < 1e-300 {
			j++
			break
		}
		s.cs[j] = col[j] / denom
		s.sn[j] = col[j+1] / denom
		col[j] = denom
		col[j+1] = 0
		s.g[j+1] = -s.sn[j] * s.g[j]
		s.g[j] = s.cs[j] * s.g[j]

		s.st.Residual = math.Abs(s.g[j+1]) / s.bNorm
		if s.st.Residual <= s.tol {
			j++
			break
		}
	}
	// Back-substitute y and apply the update.
	for i := j - 1; i >= 0; i-- {
		sum := s.g[i]
		for k := i + 1; k < j; k++ {
			sum -= s.h[k][i] * s.y[k]
		}
		if math.Abs(s.h[i][i]) < 1e-300 {
			s.failed = fmt.Errorf("%w: singular Hessenberg diagonal", ErrBreakdown)
			return s.st, s.failed
		}
		s.y[i] = sum / s.h[i][i]
	}
	x := s.x[:n]
	for i := 0; i < j; i++ {
		yi := s.y[i]
		vi := s.v[i][:n]
		for k := range x {
			x[k] += yi * vi[k]
		}
	}
	if s.st.Residual <= s.tol {
		s.st.Converged = true
	}
	return s.st, nil
}

// ------------------------------------------------------------- Power ----

// PowerStepper is power iteration with resident state: one Step is one
// normalized multiply. Lambda exposes the current dominant-eigenvalue
// estimate.
type PowerStepper struct {
	mul    SpMVCtx
	x, y   []float64
	tol    float64
	lambda float64
	prev   float64
	st     Status
	failed error
}

// NewPowerStepper prepares a dominant-eigenpair iteration. x is the start
// vector (must be nonzero) and is normalized in place.
func NewPowerStepper(mul SpMVCtx, x []float64, tol float64) (*PowerStepper, error) {
	nx := norm2(x)
	if nx == 0 {
		return nil, fmt.Errorf("%w: zero start vector", ErrBreakdown)
	}
	for i := range x {
		x[i] /= nx
	}
	return &PowerStepper{mul: mul, x: x, y: make([]float64, len(x)), tol: tol}, nil
}

func (s *PowerStepper) Status() Status      { return s.st }
func (s *PowerStepper) Solution() []float64 { return s.x }

// Lambda returns the current dominant-eigenvalue estimate.
func (s *PowerStepper) Lambda() float64 { return s.lambda }

func (s *PowerStepper) Step(ctx context.Context) (Status, error) {
	if s.failed != nil {
		return s.st, s.failed
	}
	if s.st.Converged {
		return s.st, nil
	}
	if err := checkCtx(ctx); err != nil {
		return s.st, err
	}
	if err := s.mul(ctx, s.x, s.y); err != nil {
		return s.st, err
	}
	s.lambda = dot(s.x, s.y)
	ny := norm2(s.y)
	if ny == 0 {
		s.failed = fmt.Errorf("%w: A annihilated the iterate", ErrBreakdown)
		return s.st, s.failed
	}
	x := s.x
	y := s.y[:len(x)]
	for i := range x {
		x[i] = y[i] / ny
	}
	s.st.Residual = math.Abs(s.lambda - s.prev)
	if s.st.Iterations > 0 && s.st.Residual <= s.tol*math.Max(1, math.Abs(s.lambda)) {
		s.st.Converged = true
	}
	s.prev = s.lambda
	s.st.Iterations++
	return s.st, nil
}

// ---------------------------------------------------------- PageRank ----

// PageRankStepper iterates r' = d·T·r + (1-d)/n, where T is the
// column-stochastic transition matrix the injected executor multiplies
// by. One Step is one rank update (one SpMV); Residual is the L1 rank
// change, the standard PageRank convergence measure.
type PageRankStepper struct {
	mul     SpMVCtx
	x, y    []float64
	damping float64
	tol     float64
	st      Status
	failed  error
}

// NewPageRankStepper prepares a PageRank iteration over a transition
// matrix of dimension n = len(x). A nil or zero x starts from the uniform
// distribution; damping outside (0,1] is rejected.
func NewPageRankStepper(mul SpMVCtx, x []float64, damping, tol float64) (*PageRankStepper, error) {
	if damping <= 0 || damping > 1 {
		return nil, fmt.Errorf("solvers: pagerank: damping %g outside (0,1]", damping)
	}
	n := len(x)
	if n == 0 {
		return nil, fmt.Errorf("solvers: pagerank: empty rank vector")
	}
	sum := 0.0
	for _, v := range x {
		sum += v
	}
	if sum == 0 {
		for i := range x {
			x[i] = 1 / float64(n)
		}
	}
	return &PageRankStepper{mul: mul, x: x, y: make([]float64, n), damping: damping, tol: tol}, nil
}

func (s *PageRankStepper) Status() Status      { return s.st }
func (s *PageRankStepper) Solution() []float64 { return s.x }

func (s *PageRankStepper) Step(ctx context.Context) (Status, error) {
	if s.failed != nil {
		return s.st, s.failed
	}
	if s.st.Converged {
		return s.st, nil
	}
	if err := checkCtx(ctx); err != nil {
		return s.st, err
	}
	if err := s.mul(ctx, s.x, s.y); err != nil {
		return s.st, err
	}
	x, damping := s.x, s.damping
	y := s.y[:len(x)]
	teleport := (1 - damping) / float64(len(x))
	delta := 0.0
	for i := range x {
		next := damping*y[i] + teleport
		delta += math.Abs(next - x[i])
		x[i] = next
	}
	s.st.Iterations++
	s.st.Residual = delta
	if delta <= s.tol {
		s.st.Converged = true
	}
	return s.st, nil
}
