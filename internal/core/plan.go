package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"

	"spmvtune/internal/binning"
	"spmvtune/internal/c50"
	"spmvtune/internal/errdefs"
	"spmvtune/internal/kernels"
	"spmvtune/internal/plan"
	"spmvtune/internal/sparse"
	"spmvtune/internal/trace"
)

// ModelVersion returns a deterministic hex digest of a trained model —
// candidate granularities, bin cap, feature mode and both serialized
// stages. Plans record it so a model rollout distinguishes its plans from
// a predecessor's. A nil model hashes to the empty string.
func ModelVersion(m *Model) string {
	if m == nil {
		return ""
	}
	h := sha256.New()
	var buf [8]byte
	put := func(x int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	for _, u := range m.Us {
		put(int64(u))
	}
	put(int64(m.MaxBins))
	if m.Extended {
		put(1)
	}
	// The space name is hashed only when set, so pool models — serialized
	// identically to pre-synthesis builds — keep their pre-synthesis hashes
	// and a rollout of this code alone invalidates no cached plans.
	if m.Space != "" {
		h.Write([]byte(m.Space))
	}
	for _, t := range []*c50.Tree{m.Stage1, m.Stage2} {
		if t == nil {
			continue
		}
		if blob, err := t.MarshalJSON(); err == nil {
			h.Write(blob)
		}
	}
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:8])
}

// Plan runs the predict path only and reifies its outcome as a
// serializable TuningPlan: feature extraction, stage-1 U, binning layout,
// stage-2 kernel per non-empty bin, plus the matrix fingerprint and model
// version for cache keying and auditing. No kernel executes.
//
// A panicking predict path (malformed model) degrades to the serial
// fallback plan (Fallback set; its execution reports DecisionFallback). The
// error is non-nil only for invalid input or an expired context.
func (fw *Framework) Plan(ctx context.Context, a *sparse.CSR) (*plan.TuningPlan, error) {
	return fw.PlanTraced(ctx, a, nil, "")
}

// PlanTraced is Plan with pipeline tracing: one span per predict phase
// (features → predict-u → bin → predict-kernel) is emitted to tw, tagged
// with traceID. A nil Writer emits nothing — Plan is exactly
// PlanTraced(ctx, a, nil, "").
func (fw *Framework) PlanTraced(ctx context.Context, a *sparse.CSR, tw *trace.Writer, traceID string) (*plan.TuningPlan, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, errdefs.Canceled(err)
	}

	// One atomic load for the whole plan: the recorded ModelVersion and the
	// decisions below always come from the same model snapshot, even while
	// a retrain promotion swaps the live pointer.
	cur := fw.installed()
	m := cur.m
	p := &plan.TuningPlan{
		Fingerprint:  plan.Fingerprint(a),
		ModelVersion: cur.version,
		Rows:         a.Rows,
		Cols:         a.Cols,
		NNZ:          a.NNZ(),
		FeatureNames: fw.Cfg.FeatureNames(),
	}

	d, b, err := fw.decideGuarded(m, a, tw, traceID)
	if err != nil {
		p.Fallback = true
		d, b = serialFallback(a)
	}
	// Pool-model plans keep the pre-synthesis serialized form (version 0, no
	// space, no params) so older builds and persisted-plan fixtures read them
	// unchanged; only a synthesized-space model emits the version-2 fields.
	// A fallback plan is single-bin Kernel-Serial — a pool point — so it
	// stays in the legacy form too.
	sp := kernels.PoolSpace()
	if m != nil && m.Space != "" && !p.Fallback {
		sp = m.KernelSpace()
		p.Version = plan.FormatVersion
		p.Space = sp.Name
	}
	p.Features = fw.Cfg.FeatureVector(a)
	// A coarse bin ID never exceeds NNZ/U, so a cap above NNZ+1 bins the
	// matrix exactly as NNZ+1 does; record that, which plan.Validate accepts.
	p.MaxBins = fw.Cfg.MaxBins
	if p.MaxBins > binning.DefaultMaxBins && p.MaxBins-1 > p.NNZ {
		p.MaxBins = p.NNZ + 1
	}
	assignBins(p, d, b, sp)
	return p, nil
}

// serialFallback is the strategy every failed decision lands on: the whole
// matrix as one bin on Kernel-Serial, which needs no model and has no LDS,
// barrier or divergence hazards beyond row length.
func serialFallback(a *sparse.CSR) (Decision, *binning.Binning) {
	return Decision{U: 0, KernelByBin: map[int]int{0: 0}}, binning.Single(a)
}

// SerialFallbackPlan is serialFallback as a plan built from the matrix
// alone — no model, no features, no tuning — for callers that must serve
// while tuning is unavailable. Fallback is set, so its execution reports
// DecisionFallback like any other failed decision.
func SerialFallbackPlan(a *sparse.CSR, fingerprint string) *plan.TuningPlan {
	p := &plan.TuningPlan{Fingerprint: fingerprint, Rows: a.Rows, Cols: a.Cols, NNZ: a.NNZ(), Fallback: true}
	d, b := serialFallback(a)
	assignBins(p, d, b, kernels.PoolSpace())
	return p
}

// assignBins records the decision's layout in p: U, the binning scheme and
// one assignment per non-empty bin (with kernel parameters from sp when the
// plan is in the version-2 form).
func assignBins(p *plan.TuningPlan, d Decision, b *binning.Binning, sp *kernels.Space) {
	p.U = d.U
	p.Scheme = b.Scheme
	for _, binID := range b.NonEmpty() {
		kid := d.KernelByBin[binID]
		name := ""
		if info, ok := kernels.ByID(kid); ok {
			name = info.Name
		}
		ba := plan.BinAssignment{
			Bin:        binID,
			Rows:       b.NumRows(binID),
			Groups:     len(b.Bins[binID]),
			Kernel:     kid,
			KernelName: name,
		}
		if p.Version >= 2 {
			if params, ok := sp.ParamsByID(kid); ok {
				ba.Params = &params
			}
		}
		p.Bins = append(p.Bins, ba)
	}
}

// ExecutePlanOpts is ExecutePlanBatchOpts for a single right-hand side; the
// report is the batch's shared report (a lone vector is never isolated).
func (fw *Framework) ExecutePlanOpts(ctx context.Context, p *plan.TuningPlan, a *sparse.CSR, v, u []float64, opt GuardOptions) (*ExecReport, error) {
	brep, err := fw.ExecutePlanBatchOpts(ctx, p, a, [][]float64{v}, [][]float64{u}, opt)
	return brep.Shared, err
}
