package experiments

import (
	"fmt"
	"math/rand"

	"spmvtune/internal/core"
	"spmvtune/internal/reorder"
	"spmvtune/internal/sparse"
)

// ReorderRow reports the auto-tuned time on a matrix in its natural order,
// randomly shuffled, and RCM-reordered after shuffling.
type ReorderRow struct {
	Name            string
	NaturalSeconds  float64
	ShuffledSeconds float64
	RCMSeconds      float64
	RecoveredFrac   float64 // (shuffled - rcm) / (shuffled - natural), 1 = full recovery
}

// Reorder is the locality ablation: the coarse virtual-row binning
// (Algorithm 2) presumes adjacent rows are similar — SuiteSparse orderings
// mostly satisfy this, an adversarial permutation does not. The experiment
// shuffles each representative matrix, measures the auto-tuned SpMV, then
// applies reverse Cuthill-McKee and measures again.
func Reorder(o *Options) ([]ReorderRow, error) {
	o.Defaults()
	model, _, err := o.EnsureModel()
	if err != nil {
		return nil, err
	}
	fw := core.NewFramework(o.config(), model)
	run := func(a *sparse.CSR) (float64, error) {
		v := randVec(a.Cols, o.Seed)
		u := make([]float64, a.Rows)
		_, st, err := runAuto(fw, a, v, u)
		return st.Seconds, err
	}

	fmt.Fprintf(o.Out, "== Locality ablation: natural vs shuffled vs RCM-reordered ==\n")
	var rows []ReorderRow
	for _, r := range o.representative() {
		if r.A.Rows != r.A.Cols {
			continue // symmetric permutation needs square matrices
		}
		row := ReorderRow{Name: r.Name}
		if row.NaturalSeconds, err = run(r.A); err != nil {
			return rows, fmt.Errorf("%s natural: %w", r.Name, err)
		}
		rng := rand.New(rand.NewSource(o.Seed + 7))
		shuffled := reorder.Permute(r.A, rng.Perm(r.A.Rows))
		if row.ShuffledSeconds, err = run(shuffled); err != nil {
			return rows, fmt.Errorf("%s shuffled: %w", r.Name, err)
		}
		rcm := reorder.Permute(shuffled, reorder.RCM(shuffled))
		if row.RCMSeconds, err = run(rcm); err != nil {
			return rows, fmt.Errorf("%s rcm: %w", r.Name, err)
		}
		if gap := row.ShuffledSeconds - row.NaturalSeconds; gap > 0 {
			row.RecoveredFrac = (row.ShuffledSeconds - row.RCMSeconds) / gap
		} else {
			row.RecoveredFrac = 1
		}
		rows = append(rows, row)
		fmt.Fprintf(o.Out, "%-15s natural=%8.3fms shuffled=%8.3fms (%.2fx) rcm=%8.3fms (recovers %3.0f%%)\n",
			row.Name, row.NaturalSeconds*1e3, row.ShuffledSeconds*1e3,
			row.ShuffledSeconds/row.NaturalSeconds, row.RCMSeconds*1e3, 100*row.RecoveredFrac)
	}
	return rows, nil
}
