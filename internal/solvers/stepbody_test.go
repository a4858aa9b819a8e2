package solvers

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"spmvtune/internal/sparse"
)

// The frozen Step bodies below are the Jacobi, GMRES, power and PageRank
// steppers' iteration bodies as they were before their vector passes were
// rewritten on hoisted slices, down to their own copies of dot and norm2.
// They are the oracles of TestStepperBitsUnchanged; do not edit them to
// follow the live code.

func referenceDot(x, y []float64) float64 {
	s := 0.0
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

func referenceNorm2(x []float64) float64 { return math.Sqrt(referenceDot(x, x)) }

func referenceJacobiStep(s *JacobiStepper, ctx context.Context) (Status, error) {
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
	rn := 0.0
	for i := range s.x {
		r := s.b[i] - s.ax[i]
		rn += r * r
		s.x[i] += r / s.diag[i]
	}
	s.st.Iterations++
	s.st.Residual = math.Sqrt(rn) / s.bNorm
	if s.st.Residual <= s.tol {
		s.st.Converged = true
	}
	return s.st, nil
}

func referenceGMRESStep(s *GMRESStepper, ctx context.Context) (Status, error) {
	if s.failed != nil {
		return s.st, s.failed
	}
	if s.st.Converged || s.st.Iterations >= s.maxIter {
		return s.st, nil
	}
	if err := s.mul(ctx, s.x, s.r); err != nil {
		return s.st, err
	}
	for i := range s.r {
		s.r[i] = s.b[i] - s.r[i]
	}
	beta := referenceNorm2(s.r)
	s.st.Residual = beta / s.bNorm
	if s.st.Residual <= s.tol {
		s.st.Converged = true
		return s.st, nil
	}
	for i := range s.r {
		s.v[0][i] = s.r[i] / beta
	}
	for i := range s.g {
		s.g[i] = 0
	}
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
		col := s.h[j][:j+2]
		for i := 0; i <= j; i++ {
			col[i] = referenceDot(s.w, s.v[i])
			for k := range s.w {
				s.w[k] -= col[i] * s.v[i][k]
			}
		}
		col[j+1] = referenceNorm2(s.w)
		if col[j+1] > 1e-300 {
			for k := range s.w {
				s.v[j+1][k] = s.w[k] / col[j+1]
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
	for i := 0; i < j; i++ {
		yi := s.y[i]
		vi := s.v[i]
		for k := range s.x {
			s.x[k] += yi * vi[k]
		}
	}
	if s.st.Residual <= s.tol {
		s.st.Converged = true
	}
	return s.st, nil
}

func referencePowerStep(s *PowerStepper, ctx context.Context) (Status, error) {
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
	s.lambda = referenceDot(s.x, s.y)
	ny := referenceNorm2(s.y)
	if ny == 0 {
		s.failed = fmt.Errorf("%w: A annihilated the iterate", ErrBreakdown)
		return s.st, s.failed
	}
	for i := range s.x {
		s.x[i] = s.y[i] / ny
	}
	s.st.Residual = math.Abs(s.lambda - s.prev)
	if s.st.Iterations > 0 && s.st.Residual <= s.tol*math.Max(1, math.Abs(s.lambda)) {
		s.st.Converged = true
	}
	s.prev = s.lambda
	s.st.Iterations++
	return s.st, nil
}

func referencePageRankStep(s *PageRankStepper, ctx context.Context) (Status, error) {
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
	n := float64(len(s.x))
	teleport := (1 - s.damping) / n
	delta := 0.0
	for i := range s.x {
		next := s.damping*s.y[i] + teleport
		delta += math.Abs(next - s.x[i])
		s.x[i] = next
	}
	s.st.Iterations++
	s.st.Residual = delta
	if delta <= s.tol {
		s.st.Converged = true
	}
	return s.st, nil
}

// columnStochastic returns a's pattern with every entry replaced by its
// magnitude over its column's magnitude sum: a transition matrix for
// PageRank (an empty column is a dangling node).
func columnStochastic(a *sparse.CSR) *sparse.CSR {
	t := a.Clone()
	colSum := make([]float64, a.Cols)
	for k, c := range t.ColIdx {
		colSum[c] += math.Abs(t.Val[k])
	}
	for k, c := range t.ColIdx {
		t.Val[k] = math.Abs(t.Val[k]) / colSum[c]
	}
	return t
}

// stepFn is one Step: a stepper's own, or its frozen body bound to it.
type stepFn func(context.Context) (Status, error)

// side returns live, or with ref the frozen body bound to s.
func side[S any](ref bool, s S, live stepFn, body func(S, context.Context) (Status, error)) stepFn {
	if ref {
		return func(ctx context.Context) (Status, error) { return body(s, ctx) }
	}
	return live
}

// TestStepperBitsUnchanged runs the Jacobi, GMRES, power and PageRank
// steppers' Step side by side with their frozen bodies, on SPD,
// nonsymmetric and odd-length systems: after every Step the error, the
// status, the iterate (and power iteration's eigenvalue) must agree bit for
// bit.
func TestStepperBitsUnchanged(t *testing.T) {
	nonsym := func(n int, seed int64) *sparse.CSR { a, _, _ := nonsymSystem(n, seed); return a }
	for _, sys := range []struct {
		name string
		a    *sparse.CSR
	}{
		{"spd", randomSPD(900, 4, 28)},
		{"nonsym", nonsym(400, 7)},
		{"odd-spd", randomSPD(301, 3, 9)},
		{"odd-nonsym", nonsym(37, 3)},
	} {
		n := sys.a.Rows
		rng := rand.New(rand.NewSource(11))
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		mul := Lift(Default(sys.a))
		pmul := Lift(Default(columnStochastic(sys.a)))
		// Each case builds one side: the live Step, or (ref) the frozen body
		// on a stepper of its own; x and lambda are that stepper's state.
		for _, tc := range []struct {
			name  string
			build func(t *testing.T, ref bool) (step stepFn, x []float64, lambda *float64)
		}{
			{"jacobi", func(t *testing.T, ref bool) (stepFn, []float64, *float64) {
				s, err := NewJacobiStepper(sys.a, mul, b, make([]float64, n), 1e-300)
				if err != nil {
					t.Fatal(err)
				}
				return side(ref, s, s.Step, referenceJacobiStep), s.x, nil
			}},
			{"gmres5", func(t *testing.T, ref bool) (stepFn, []float64, *float64) {
				s, err := NewGMRESStepper(mul, b, make([]float64, n), 1e-300, 5, 1000)
				if err != nil {
					t.Fatal(err)
				}
				return side(ref, s, s.Step, referenceGMRESStep), s.x, nil
			}},
			{"gmres30", func(t *testing.T, ref bool) (stepFn, []float64, *float64) {
				s, err := NewGMRESStepper(mul, b, make([]float64, n), 1e-300, 30, 1000)
				if err != nil {
					t.Fatal(err)
				}
				return side(ref, s, s.Step, referenceGMRESStep), s.x, nil
			}},
			{"power", func(t *testing.T, ref bool) (stepFn, []float64, *float64) {
				x := make([]float64, n)
				ones(x)
				s, err := NewPowerStepper(mul, x, 1e-300)
				if err != nil {
					t.Fatal(err)
				}
				return side(ref, s, s.Step, referencePowerStep), s.x, &s.lambda
			}},
			{"pagerank", func(t *testing.T, ref bool) (stepFn, []float64, *float64) {
				s, err := NewPageRankStepper(pmul, make([]float64, n), 0.85, 1e-300)
				if err != nil {
					t.Fatal(err)
				}
				return side(ref, s, s.Step, referencePageRankStep), s.x, nil
			}},
		} {
			t.Run(tc.name+"/"+sys.name, func(t *testing.T) {
				gotStep, gotX, gotLambda := tc.build(t, false)
				wantStep, wantX, wantLambda := tc.build(t, true)
				ctx := context.Background()
				for step := 0; step < 200; step++ {
					gst, gerr := gotStep(ctx)
					wst, werr := wantStep(ctx)
					if fmt.Sprint(gerr) != fmt.Sprint(werr) {
						t.Fatalf("step %d: error %v, reference %v", step, gerr, werr)
					}
					if gst.Iterations != wst.Iterations || gst.Converged != wst.Converged ||
						math.Float64bits(gst.Residual) != math.Float64bits(wst.Residual) {
						t.Fatalf("step %d: status %+v, reference %+v", step, gst, wst)
					}
					for i := range gotX {
						if math.Float64bits(gotX[i]) != math.Float64bits(wantX[i]) {
							t.Fatalf("step %d: x[%d] = %v, reference %v", step, i, gotX[i], wantX[i])
						}
					}
					if gotLambda != nil && math.Float64bits(*gotLambda) != math.Float64bits(*wantLambda) {
						t.Fatalf("step %d: lambda = %v, reference %v", step, *gotLambda, *wantLambda)
					}
					if gerr != nil || gst.Converged {
						break
					}
				}
			})
		}
	}
}
