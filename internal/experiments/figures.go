package experiments

import (
	"fmt"
	"math"
	"time"

	"spmvtune/internal/binning"
	"spmvtune/internal/core"
	"spmvtune/internal/csradaptive"
	"spmvtune/internal/features"
	"spmvtune/internal/kernels"
	"spmvtune/internal/matgen"
	"spmvtune/internal/sparse"
)

// ---------------------------------------------------------------- Figure 2

// Fig2aResult holds kernel times for two contrasting inputs, single bin.
type Fig2aResult struct {
	Kernels []string
	// Seconds[input][kernel]; inputs are a short-row and a long-row matrix.
	Inputs  []string
	Seconds [][]float64
}

// Fig2a reproduces Figure 2a: the same five kernels on two different input
// matrices (all rows in a single bin) rank completely differently.
func Fig2a(o *Options) (Fig2aResult, error) {
	o.Defaults()
	res := Fig2aResult{Inputs: []string{"short-row(graph)", "long-row(FEM)"}}
	mats := []*sparse.CSR{
		matgen.RoadNetwork(200000/o.Scale+1024, o.Seed),
		matgen.BlockFEM(40000/o.Scale+128, 400, 60, o.Seed+1),
	}
	for _, info := range fig2Kernels() {
		res.Kernels = append(res.Kernels, info.Name)
	}
	fmt.Fprintf(o.Out, "== Figure 2a: five kernels, two inputs, single bin ==\n")
	for mi, a := range mats {
		v := randVec(a.Cols, o.Seed)
		row := make([]float64, 0, 5)
		for _, info := range fig2Kernels() {
			u := make([]float64, a.Rows)
			st := core.SimulateKernel(o.Dev, a, v, u, info.Kernel, binning.Single(a).Bins[0])
			if err := verifyAgainstReference(a, v, u); err != nil {
				return res, err
			}
			row = append(row, st.Seconds)
		}
		res.Seconds = append(res.Seconds, row)
		fmt.Fprintf(o.Out, "%-18s", res.Inputs[mi])
		for ki, s := range row {
			fmt.Fprintf(o.Out, "  %s=%.3gms", res.Kernels[ki], s*1e3)
		}
		fmt.Fprintln(o.Out)
	}
	return res, nil
}

// Fig2bResult holds per-bin kernel times for one matrix under binning.
type Fig2bResult struct {
	Kernels []string
	BinIDs  []int
	// Seconds[bin][kernel]
	Seconds [][]float64
	// Best[bin] is the winning kernel name.
	Best []string
}

// Fig2b reproduces Figure 2b: rows of one matrix distributed into bins;
// different bins prefer different kernels even for the same input.
func Fig2b(o *Options) (Fig2bResult, error) {
	o.Defaults()
	res := Fig2bResult{}
	for _, info := range fig2Kernels() {
		res.Kernels = append(res.Kernels, info.Name)
	}
	// A mixed matrix whose regions have very different row lengths, binned
	// coarsely so several bins are populated.
	a := matgen.Mixed(120000/o.Scale+512, 120000/o.Scale+512, 64, []int{2, 30, 150, 600}, o.Seed+2)
	b := binning.Coarse(a, 10, binning.DefaultMaxBins)
	v := randVec(a.Cols, o.Seed)
	fmt.Fprintf(o.Out, "== Figure 2b: five kernels per bin (U=10) ==\n")
	nonEmpty := b.NonEmpty()
	if len(nonEmpty) > 4 {
		// Figure 2b shows four bins: pick a spread (first, last, two middle).
		nonEmpty = []int{nonEmpty[0], nonEmpty[len(nonEmpty)/3],
			nonEmpty[2*len(nonEmpty)/3], nonEmpty[len(nonEmpty)-1]}
	}
	for _, binID := range nonEmpty {
		row := make([]float64, 0, 5)
		bestK, bestS := "", math.Inf(1)
		for _, info := range fig2Kernels() {
			u := make([]float64, a.Rows)
			st := core.SimulateKernel(o.Dev, a, v, u, info.Kernel, b.Bins[binID])
			row = append(row, st.Seconds)
			if st.Seconds < bestS {
				bestS, bestK = st.Seconds, info.Name
			}
		}
		res.BinIDs = append(res.BinIDs, binID)
		res.Seconds = append(res.Seconds, row)
		res.Best = append(res.Best, bestK)
		fmt.Fprintf(o.Out, "bin %-3d (%6d rows) best=%-12s", binID, b.NumRows(binID), bestK)
		for ki, s := range row {
			fmt.Fprintf(o.Out, "  %s=%.3gms", res.Kernels[ki], s*1e3)
		}
		fmt.Fprintln(o.Out)
	}
	return res, nil
}

// ---------------------------------------------------------------- Figure 5

// Fig5Result is the row-length histogram over a synthetic corpus.
type Fig5Result struct {
	Bounds     []int
	Counts     []int64
	TotalRows  int64
	FracLE100  float64 // paper: ~98.7% of rows have <=100 non-zeros
	CorpusSize int
}

// Fig5 reproduces Figure 5: the histogram of non-zeros per row across the
// matrix collection.
func Fig5(o *Options) (Fig5Result, error) {
	o.Defaults()
	bounds := []int{2, 4, 8, 16, 32, 64, 100, 256, 1024}
	res := Fig5Result{Bounds: bounds, Counts: make([]int64, len(bounds)+1)}
	corpus := matgen.ValueFreeCorpus(matgen.CorpusOptions{N: o.CorpusN * 2, MinRows: o.MinRows, MaxRows: o.MaxRows, Seed: o.Seed})
	res.CorpusSize = len(corpus)
	for _, cm := range corpus {
		h := sparse.RowLengthHistogram(cm.A, bounds)
		for i, c := range h {
			res.Counts[i] += c
		}
		res.TotalRows += int64(cm.A.Rows)
	}
	le100 := int64(0)
	for i, ub := range bounds {
		if ub <= 100 {
			le100 += res.Counts[i]
		}
	}
	res.FracLE100 = float64(le100) / float64(res.TotalRows)
	fmt.Fprintf(o.Out, "== Figure 5: rows-per-length histogram over %d matrices (%d rows) ==\n",
		res.CorpusSize, res.TotalRows)
	prev := 0
	for i, ub := range bounds {
		fmt.Fprintf(o.Out, "  (%4d,%4d]: %9d (%.2f%%)\n", prev, ub, res.Counts[i],
			100*float64(res.Counts[i])/float64(res.TotalRows))
		prev = ub
	}
	fmt.Fprintf(o.Out, "  > %d      : %9d\n", bounds[len(bounds)-1], res.Counts[len(bounds)])
	fmt.Fprintf(o.Out, "  rows with <=100 nnz: %.2f%% (paper: ~98.7%%)\n", 100*res.FracLE100)
	return res, nil
}

// ---------------------------------------------------------------- Table 2

// Table2Row describes one representative matrix.
type Table2Row struct {
	Name, Kind string
	Rows, Cols int
	NNZ        int
	F          features.F
}

// Table2 regenerates Table II (the 16 representative matrices) at the
// configured scale, along with their Table I features.
func Table2(o *Options) []Table2Row {
	o.Defaults()
	var out []Table2Row
	fmt.Fprintf(o.Out, "== Table II: representative matrices (scale 1/%d) ==\n", o.Scale)
	for _, r := range o.representative() {
		f := features.Extract(r.A)
		out = append(out, Table2Row{Name: r.Name, Kind: r.Kind,
			Rows: r.A.Rows, Cols: r.A.Cols, NNZ: r.A.NNZ(), F: f})
		fmt.Fprintf(o.Out, "%-15s %9d x %-9d nnz=%-9d avg=%7.1f var=%10.1f  %s\n",
			r.Name, r.A.Rows, r.A.Cols, r.A.NNZ(), f.AvgNNZ, f.VarNNZ, r.Kind)
	}
	return out
}

// ---------------------------------------------------------------- Figure 6

// Fig6Row compares kernel-auto against the two single-kernel defaults.
type Fig6Row struct {
	Name          string
	AutoSeconds   float64
	SerialSeconds float64
	VectorSeconds float64
	SpeedupSerial float64 // serial / auto
	SpeedupVector float64 // vector / auto
	Decision      string
}

// Fig6 reproduces Figure 6: auto-tuned SpMV vs kernel-serial and
// kernel-vector on the 16 representative matrices. The paper reports
// speedups of 1.7-11.9x over serial and 1.2-52.0x over vector.
func Fig6(o *Options) ([]Fig6Row, TrainStats, error) {
	o.Defaults()
	model, ts, err := o.EnsureModel()
	if err != nil {
		return nil, ts, err
	}
	fw := core.NewFramework(o.config(), model)
	var rows []Fig6Row
	fmt.Fprintf(o.Out, "== Figure 6: kernel-auto vs single-kernel defaults ==\n")
	for _, r := range o.representative() {
		v := randVec(r.A.Cols, o.Seed)
		u := make([]float64, r.A.Rows)
		d, auto, err := runAuto(fw, r.A, v, u)
		if err != nil {
			return rows, ts, fmt.Errorf("%s: %w", r.Name, err)
		}
		serial, err := core.SimulateSingleKernel(o.Dev, r.A, v, u, 0)
		if err != nil {
			return rows, ts, err
		}
		vector, err := core.SimulateSingleKernel(o.Dev, r.A, v, u, 8)
		if err != nil {
			return rows, ts, err
		}
		row := Fig6Row{Name: r.Name,
			AutoSeconds: auto.Seconds, SerialSeconds: serial.Seconds, VectorSeconds: vector.Seconds,
			SpeedupSerial: serial.Seconds / auto.Seconds,
			SpeedupVector: vector.Seconds / auto.Seconds,
			Decision:      d.String()}
		rows = append(rows, row)
		fmt.Fprintf(o.Out, "%-15s auto=%8.3fms serial=%8.3fms (%5.2fx) vector=%9.3fms (%6.2fx)  [%s]\n",
			row.Name, row.AutoSeconds*1e3, row.SerialSeconds*1e3, row.SpeedupSerial,
			row.VectorSeconds*1e3, row.SpeedupVector, row.Decision)
	}
	return rows, ts, nil
}

// ---------------------------------------------------------------- Figure 7

// Fig7Row compares kernel-auto against CSR-Adaptive.
type Fig7Row struct {
	Name            string
	AutoSeconds     float64
	AdaptiveSeconds float64
	Speedup         float64 // adaptive / auto (>1 means auto wins)
}

// Fig7 reproduces Figure 7: auto-tuned SpMV vs the CSR-Adaptive baseline.
// The paper wins on 10 of 16 matrices with up to 1.9x speedup; it loses on
// crankseg_2, D6-6, dictionary28, europe_osm, Ga3As3H12 and roadNet-CA.
func Fig7(o *Options) ([]Fig7Row, int, error) {
	o.Defaults()
	model, _, err := o.EnsureModel()
	if err != nil {
		return nil, 0, err
	}
	fw := core.NewFramework(o.config(), model)
	var rows []Fig7Row
	wins := 0
	fmt.Fprintf(o.Out, "== Figure 7: kernel-auto vs CSR-Adaptive ==\n")
	for _, r := range o.representative() {
		v := randVec(r.A.Cols, o.Seed)
		u := make([]float64, r.A.Rows)
		_, auto, err := runAuto(fw, r.A, v, u)
		if err != nil {
			return rows, wins, err
		}
		ua := make([]float64, r.A.Rows)
		adaptive := csradaptive.SimulateSpMV(o.Dev, r.A, v, ua, 0)
		if err := verifyAgainstReference(r.A, v, ua); err != nil {
			return rows, wins, fmt.Errorf("%s (csr-adaptive): %w", r.Name, err)
		}
		row := Fig7Row{Name: r.Name, AutoSeconds: auto.Seconds,
			AdaptiveSeconds: adaptive.Seconds, Speedup: adaptive.Seconds / auto.Seconds}
		if row.Speedup > 1 {
			wins++
		}
		rows = append(rows, row)
		fmt.Fprintf(o.Out, "%-15s auto=%8.3fms csr-adaptive=%8.3fms speedup=%5.2fx\n",
			row.Name, row.AutoSeconds*1e3, row.AdaptiveSeconds*1e3, row.Speedup)
	}
	fmt.Fprintf(o.Out, "auto wins on %d/%d matrices (paper: 10/16)\n", wins, len(rows))
	return rows, wins, nil
}

// ---------------------------------------------------------------- Figure 8

// Fig8Row is the binning overhead at one granularity.
type Fig8Row struct {
	U           int
	Seconds     float64
	GroupsBuilt int
}

// Fig8 reproduces Figure 8: the host-side cost of binning a matrix with
// 10^7 single-non-zero rows (scaled by o.Scale) as a function of U. The
// paper shows U=1 is far more expensive and the cost becomes negligible by
// U=100.
func Fig8(o *Options) ([]Fig8Row, error) {
	o.Defaults()
	rows := 10000000 / o.Scale
	if rows < 100000 {
		rows = 100000
	}
	a := matgen.SingleNNZRows(rows, rows, o.Seed)
	var out []Fig8Row
	fmt.Fprintf(o.Out, "== Figure 8: binning overhead vs U (%d rows, 1 nnz each) ==\n", rows)
	for _, u := range []int{1, 10, 100, 1000, 10000, 100000} {
		// Median of 3 runs to stabilize wall time.
		var times []float64
		var groups int
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			b := binning.Coarse(a, u, binning.DefaultMaxBins)
			times = append(times, time.Since(start).Seconds())
			groups = binning.Measure(b).GroupsBuilt
		}
		med := median3(times)
		out = append(out, Fig8Row{U: u, Seconds: med, GroupsBuilt: groups})
		fmt.Fprintf(o.Out, "U=%-7d binning=%9.3fms groups=%d\n", u, med*1e3, groups)
	}
	return out, nil
}

func median3(t []float64) float64 {
	a, b, c := t[0], t[1], t[2]
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

// ---------------------------------------------------------------- Figure 9

// Fig9Row is the single-bin kernel sweep for one matrix.
type Fig9Row struct {
	Name            string
	KernelSeconds   []float64 // per pool kernel ID
	BestKernel      string
	BestSeconds     float64
	AdaptiveSeconds float64 // the dashed CSR-Adaptive line
	BeatsAdaptive   bool
}

// Fig9 reproduces Figure 9: for the six matrices where the framework loses
// to CSR-Adaptive, put all rows into a single bin and sweep kernels
// manually; the paper finds four of six then match or beat the baseline.
func Fig9(o *Options) ([]Fig9Row, error) {
	o.Defaults()
	six := map[string]bool{}
	for _, n := range matgen.SingleBinSix() {
		six[n] = true
	}
	pool := kernels.Pool()
	var out []Fig9Row
	fmt.Fprintf(o.Out, "== Figure 9: single-bin strategy, manual kernel sweep ==\n")
	for _, r := range o.representative() {
		if !six[r.Name] {
			continue
		}
		v := randVec(r.A.Cols, o.Seed)
		groups := binning.Single(r.A).Bins[0]
		row := Fig9Row{Name: r.Name, BestSeconds: math.Inf(1)}
		for _, info := range pool {
			u := make([]float64, r.A.Rows)
			st := core.SimulateKernel(o.Dev, r.A, v, u, info.Kernel, groups)
			row.KernelSeconds = append(row.KernelSeconds, st.Seconds)
			if st.Seconds < row.BestSeconds {
				row.BestSeconds = st.Seconds
				row.BestKernel = info.Name
			}
		}
		ua := make([]float64, r.A.Rows)
		row.AdaptiveSeconds = csradaptive.SimulateSpMV(o.Dev, r.A, v, ua, 0).Seconds
		row.BeatsAdaptive = row.BestSeconds <= row.AdaptiveSeconds*1.02 // "outperform or become equal"
		out = append(out, row)
		fmt.Fprintf(o.Out, "%-15s best=%-12s %8.3fms vs csr-adaptive %8.3fms  %s\n",
			row.Name, row.BestKernel, row.BestSeconds*1e3, row.AdaptiveSeconds*1e3,
			map[bool]string{true: "(matches/beats)", false: "(still behind)"}[row.BeatsAdaptive])
	}
	return out, nil
}

// ---------------------------------------------------------------- ML error

// MLErr reproduces the Section III-C error-rate measurement: train on 75%
// of the corpus labels, report held-out error for both stages, and add the
// end-to-end regret of the predictions against the exhaustive-search
// oracle on fresh matrices (the metric classification accuracy proxies).
func MLErr(o *Options) (TrainStats, error) {
	o.Defaults()
	o.Model = nil // force a fresh training run so the stats are real
	model, ts, err := o.EnsureModel()
	if err != nil {
		return ts, err
	}
	fmt.Fprintf(o.Out, "== Two-stage learning error (paper: ~5%% stage 1, ~15%% stage 2) ==\n")
	fmt.Fprintf(o.Out, "corpus=%d stage1 samples=%d stage2 samples=%d\n",
		ts.Corpus, ts.Stage1Samples, ts.Stage2Samples)
	fmt.Fprintf(o.Out, "stage1 error=%.1f%% stage2 error=%.1f%% (labeling took %.1fs)\n",
		100*ts.Stage1Error, 100*ts.Stage2Error, ts.LabelSeconds)

	fresh := matgen.Matrices(matgen.ValueFreeCorpus(matgen.CorpusOptions{N: 16, MinRows: o.MinRows, MaxRows: o.MaxRows, Seed: o.Seed + 1}))
	reg := core.EvaluateRegret(o.config(), model, fresh)
	fmt.Fprintf(o.Out, "prediction regret on %d fresh matrices: geo-mean %.3fx, worst %.2fx, %.0f%% within 1.10x of oracle\n",
		reg.N, reg.GeoMean, reg.Worst, 100*reg.WithinX)

	// Which attributes carry the decisions (Section IV-C asks exactly this
	// about the Table I parameters).
	fmt.Fprintf(o.Out, "stage-2 attribute importance:")
	names := model.Stage2.AttrNames()
	for i, imp := range model.Stage2.Importance() {
		if imp >= 0.01 {
			fmt.Fprintf(o.Out, " %s=%.2f", names[i], imp)
		}
	}
	fmt.Fprintln(o.Out)
	return ts, nil
}
