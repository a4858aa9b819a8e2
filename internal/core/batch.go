package core

import (
	"context"
	"sync"

	"spmvtune/internal/errdefs"
	"spmvtune/internal/plan"
	"spmvtune/internal/sparse"
)

// This file is the plan execution entry point: a TuningPlan applied to B
// right-hand sides, one guarded launch of width B per bin. Serving B
// coalesced requests against the same matrix structure with one launch pays
// the DRAM traffic for values and column indices once instead of B times.
// Each right-hand side is verified independently — a fault that corrupts one
// vector pulls only that vector out of the fused launch (it is re-served
// alone), while the remaining B-1 requests keep their clean fused result.
// ExecutePlanOpts is the B=1 call of the same path.

// BatchReport records how one batched guarded execution served its B
// coalesced requests.
type BatchReport struct {
	// Vectors is the number of right-hand sides the batch carried.
	Vectors int
	// Shared is the report of the fused launch path: decisions, accepted
	// fused launches, their summed stats and profiles. Its degradation
	// signals (retries, fallbacks) apply to the whole batch.
	Shared *ExecReport
	// PerVector[b] is non-nil iff vector b fell out of the fused path for
	// at least one bin and was re-served through the single-vector guarded
	// chain; it then records those isolated bin services.
	PerVector []*ExecReport
	// Isolated counts the vectors with a non-nil PerVector entry.
	Isolated int
}

// VectorDegraded reports whether request b deviated from the clean fused
// path: either the shared launch chain itself degraded (which affects every
// request in the batch), or vector b was isolated out of a fused launch.
func (r *BatchReport) VectorDegraded(b int) bool {
	if r.Shared != nil && r.Shared.Degraded() {
		return true
	}
	return b >= 0 && b < len(r.PerVector) && r.PerVector[b] != nil
}

// ExecutePlanBatchOpts applies a previously computed TuningPlan to B
// right-hand sides: the predict path is skipped entirely (that is the
// plan's purpose), the binning is reconstructed deterministically from the
// plan parameters, and every bin executes as one guarded launch of width B
// through the predicted → Kernel-Serial → CPU-reference fallback chain —
// kernel faults degrade, they do not fail the request. On success every
// us[b] holds a verified A times vs[b], byte-identical to what B calls with
// one vector each would produce.
//
// The plan must have been derived from a matrix with this structure; cheap
// shape checks reject obvious mismatches (full fingerprint equality is the
// caller's cache-key contract). A plan that no longer covers the matrix's
// non-empty bins degrades to the single-bin serial strategy; that, like a
// plan whose own predict path had failed (p.Fallback), is reported via
// Shared.DecisionFallback. Per-vector verification failures
// isolate the failing vector alone, and only cancellation or invalid input
// yields a non-nil error.
func (fw *Framework) ExecutePlanBatchOpts(ctx context.Context, p *plan.TuningPlan, a *sparse.CSR, vs, us [][]float64, opt GuardOptions) (*BatchReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opt = opt.withDefaults()
	brep := &BatchReport{
		Vectors:   len(vs),
		Shared:    &ExecReport{CountersEnabled: opt.Counters},
		PerVector: make([]*ExecReport, len(vs)),
	}

	if len(vs) == 0 || len(vs) != len(us) {
		return brep, errdefs.Invalidf("core: batch execution needs equal, non-zero vector counts (got %d/%d)", len(vs), len(us))
	}
	if p == nil {
		return brep, errdefs.Invalidf("core: nil tuning plan")
	}
	if err := p.Validate(); err != nil {
		return brep, err
	}
	if err := checkLaunch(ctx, p, a, vs, us); err != nil {
		// A corrupt matrix outranks every launch check, as if validated first.
		if verr := a.Validate(); verr != nil {
			return brep, verr
		}
		return brep, err
	}

	// Per-vector verification oracles (and terminal CPU fallbacks), carved
	// from a pooled slab: the fallback copies out of them and nothing
	// retains them past the bin loop. Vector 0's product also validates a,
	// so validation costs no walk of its own.
	ref := refPool.Get().(*refSlab)
	defer refPool.Put(ref)
	wants := ref.carve(len(vs), a.Rows)
	if err := a.MulVecChecked(vs[0], wants[0]); err != nil {
		return brep, err
	}
	for b := 1; b < len(vs); b++ {
		a.MulVec(vs[b], wants[b])
	}

	// Execution routes bin→kernel lookups through the plan's allocation-free
	// accessor; the report's Decision still carries the conventional map.
	d := Decision{U: p.U, KernelByBin: p.KernelByBin()}
	kernelFor := func(binID int) int { kid, _ := p.KernelFor(binID); return kid }
	rs := fw.replayScope(p, opt.Counters)
	bn, err := p.Rebin(a)
	if err != nil {
		// A stale plan degrades exactly like a failed predict path. Its
		// launches are no longer the plan's, so they are never memoized.
		d, bn = serialFallback(a)
		kernelFor = func(int) int { return 0 }
		rs = nil
	}
	brep.Shared.Decision = d
	brep.Shared.DecisionFallback = p.Fallback || err != nil

	err = fw.runBinsGuarded(ctx, a, vs, us, wants, bn, kernelFor, rs, opt, brep.Shared, brep.PerVector)
	for _, pv := range brep.PerVector {
		if pv != nil {
			brep.Isolated++
		}
	}
	return brep, err
}

// checkLaunch holds the plan's shape and every vector's length to the
// matrix and then checks for cancellation, reporting the first failure.
// It does not validate a; callers give a corrupt matrix's error precedence.
func checkLaunch(ctx context.Context, p *plan.TuningPlan, a *sparse.CSR, vs, us [][]float64) error {
	if err := p.CheckMatrix(a); err != nil {
		return err
	}
	for b := range vs {
		if len(vs[b]) < a.Cols {
			return errdefs.Invalidf("core: launch validation: vector %d: len(v)=%d < Cols=%d", b, len(vs[b]), a.Cols)
		}
		if len(us[b]) < a.Rows {
			return errdefs.Invalidf("core: launch validation: vector %d: len(u)=%d < Rows=%d", b, len(us[b]), a.Rows)
		}
	}
	if err := ctx.Err(); err != nil {
		return errdefs.Canceled(err)
	}
	return nil
}

// refSlab is the pooled backing store of one execution's reference results.
type refSlab struct {
	buf   []float64
	wants [][]float64
}

var refPool = sync.Pool{New: func() any { return new(refSlab) }}

// carve returns n vectors of rows elements each, growing the slab as needed.
func (s *refSlab) carve(n, rows int) [][]float64 {
	if cap(s.buf) < n*rows {
		s.buf = make([]float64, n*rows)
	}
	s.wants = s.wants[:0]
	for b := 0; b < n; b++ {
		s.wants = append(s.wants, s.buf[b*rows:(b+1)*rows:(b+1)*rows])
	}
	return s.wants
}
