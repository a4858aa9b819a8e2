package experiments

import (
	"context"
	"fmt"

	"spmvtune/internal/core"
	"spmvtune/internal/csradaptive"
)

// QueuedRow compares the framework's sequential per-bin launches against
// HSA user-mode-queue dispatch on one matrix.
type QueuedRow struct {
	Name            string
	SeqSeconds      float64
	QueuedSeconds   float64
	AdaptiveSeconds float64
	QueueGain       float64 // seq / queued
	BeatsAdaptive   bool    // queued vs CSR-Adaptive
}

// Queued is the dispatch-overhead extension experiment: the paper's
// framework pays one kernel launch per bin, and our Figure 7 losses on the
// road graphs trace partly to that overhead. Enqueueing the per-bin
// kernels onto one HSA queue (the platform feature Section II-A describes)
// recovers most of it. The experiment reports, for the 16 representative
// matrices, sequential vs queued auto-tuned execution and whether queued
// execution changes the CSR-Adaptive comparison.
func Queued(o *Options) ([]QueuedRow, error) {
	o.Defaults()
	model, _, err := o.EnsureModel()
	if err != nil {
		return nil, err
	}
	fw := core.NewFramework(o.config(), model)
	var rows []QueuedRow
	fmt.Fprintf(o.Out, "== Extension: per-bin launches vs HSA queued dispatch ==\n")
	flips := 0
	for _, r := range o.representative() {
		v := randVec(r.A.Cols, o.Seed)
		u := make([]float64, r.A.Rows)
		// One unguarded pass over the decision's bins; the two dispatch
		// rules differ only in what each launch costs the host.
		d, b := fw.Decide(r.A)
		seq, err := core.SimulateBinned(context.Background(), o.Dev, r.A, v, u, b, d.KernelByBin)
		if err != nil {
			return rows, err
		}
		queued := core.QueuedDispatch(o.Dev, seq, len(b.NonEmpty()))
		if err := verifyAgainstReference(r.A, v, u); err != nil {
			return rows, fmt.Errorf("%s: %w", r.Name, err)
		}
		ua := make([]float64, r.A.Rows)
		adaptive := csradaptive.SimulateSpMV(o.Dev, r.A, v, ua, 0)
		row := QueuedRow{Name: r.Name,
			SeqSeconds: seq.Seconds, QueuedSeconds: queued.Seconds,
			AdaptiveSeconds: adaptive.Seconds,
			QueueGain:       seq.Seconds / queued.Seconds,
			BeatsAdaptive:   queued.Seconds < adaptive.Seconds}
		if row.BeatsAdaptive && seq.Seconds >= adaptive.Seconds {
			flips++
		}
		rows = append(rows, row)
		fmt.Fprintf(o.Out, "%-15s seq=%8.3fms queued=%8.3fms (%.3fx) vs csr-adaptive=%8.3fms %s\n",
			row.Name, row.SeqSeconds*1e3, row.QueuedSeconds*1e3, row.QueueGain,
			row.AdaptiveSeconds*1e3,
			map[bool]string{true: "(queued wins)", false: "(csr-adaptive wins)"}[row.BeatsAdaptive])
	}
	fmt.Fprintf(o.Out, "queued dispatch flips %d previously lost comparisons\n", flips)
	return rows, nil
}
