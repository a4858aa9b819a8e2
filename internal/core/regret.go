package core

import (
	"context"
	"math"

	"spmvtune/internal/kernels"
	"spmvtune/internal/sparse"
)

// Regret quantifies prediction quality in the unit that matters: how much
// slower the model's decision runs than the exhaustive-search optimum on
// the same matrix. Classification accuracy alone over-penalizes near-tie
// mispredictions (choosing subvector8 where subvector16 was labeled may
// cost well under a percent), so the evaluation reports both.
type Regret struct {
	N       int     // matrices evaluated
	GeoMean float64 // geometric mean of predicted/optimal time
	Worst   float64 // maximum ratio
	WithinX float64 // fraction of matrices within 1.10x of optimal
}

// EvaluateRegret runs the model's decision and the oracle's best decision
// for every matrix and compares simulated times, charged from structure
// alone (value-free matrices score like their valued originals). A matrix
// the oracle runs in no time (0 rows) has no ratio: it is skipped and not
// counted in N. A nil model has no decision to evaluate and reports
// infinite regret — the promotion gate then treats any trainable candidate
// as an improvement over it.
func EvaluateRegret(cfg Config, m *Model, mats []*sparse.CSR) Regret {
	r := Regret{Worst: 1}
	if len(mats) == 0 {
		return r
	}
	if m == nil {
		return Regret{N: len(mats), GeoMean: math.Inf(1), Worst: math.Inf(1)}
	}
	fw := NewFramework(cfg, m)
	logSum := 0.0
	within := 0
	for _, a := range mats {
		res := Search(cfg, a)
		if !(res.Seconds > 0) || math.IsInf(res.Seconds, 0) {
			continue
		}

		// Charged under Account, as the search is: nobody reads v or out.
		d, b := fw.Decide(a)
		v := make([]float64, a.Cols)
		out := make([]float64, a.Rows)
		st, err := simulateBinned(context.Background(), cfg.Device, a, v, out, b, d.KernelByBin, kernels.Kernel.Account)
		if err != nil {
			continue
		}
		ratio := st.Seconds / res.Seconds
		if ratio < 1 {
			// The oracle label was canonicalized within the tie slack, so a
			// prediction can nose ahead of it; clamp for the summary.
			ratio = 1
		}
		logSum += math.Log(ratio)
		if ratio > r.Worst {
			r.Worst = ratio
		}
		if ratio <= 1.10 {
			within++
		}
		r.N++
	}
	if r.N == 0 {
		return r
	}
	r.GeoMean = math.Exp(logSum / float64(r.N))
	r.WithinX = float64(within) / float64(r.N)
	return r
}
