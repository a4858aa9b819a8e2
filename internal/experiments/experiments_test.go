package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// smallOptions keeps experiment unit tests fast: heavy scale-down and a
// tiny training corpus.
func smallOptions(buf *bytes.Buffer) *Options {
	o := &Options{Out: buf, Scale: 512, CorpusN: 12, MinRows: 128, MaxRows: 512, Seed: 7}
	o.Defaults()
	return o
}

func TestFig2a(t *testing.T) {
	var buf bytes.Buffer
	res, err := Fig2a(smallOptions(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Kernels) != 5 || len(res.Seconds) != 2 {
		t.Fatalf("shape: %d kernels, %d inputs", len(res.Kernels), len(res.Seconds))
	}
	// The two inputs must prefer different kernels (the figure's point).
	best := func(row []float64) int {
		bi := 0
		for i, s := range row {
			if s < row[bi] {
				bi = i
			}
		}
		return bi
	}
	if best(res.Seconds[0]) == best(res.Seconds[1]) {
		t.Errorf("both inputs prefer kernel %s; figure requires divergence", res.Kernels[best(res.Seconds[0])])
	}
	if !strings.Contains(buf.String(), "Figure 2a") {
		t.Error("missing header output")
	}
}

func TestFig2b(t *testing.T) {
	var buf bytes.Buffer
	res, err := Fig2b(smallOptions(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BinIDs) < 2 {
		t.Fatalf("only %d bins populated", len(res.BinIDs))
	}
	// Different bins must select different best kernels.
	distinct := map[string]bool{}
	for _, b := range res.Best {
		distinct[b] = true
	}
	if len(distinct) < 2 {
		t.Errorf("all bins prefer %v; figure requires per-bin divergence", res.Best)
	}
}

func TestFig5(t *testing.T) {
	var buf bytes.Buffer
	res, err := Fig5(smallOptions(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalRows == 0 {
		t.Fatal("no rows counted")
	}
	// The synthetic corpus must reproduce the short-row dominance of the UF
	// collection (paper: 98.7% <= 100 nnz; accept >= 90% here).
	if res.FracLE100 < 0.90 {
		t.Errorf("only %.1f%% of rows <=100 nnz; corpus too long-row-heavy", 100*res.FracLE100)
	}
	var sum int64
	for _, c := range res.Counts {
		sum += c
	}
	if sum != res.TotalRows {
		t.Errorf("histogram total %d != rows %d", sum, res.TotalRows)
	}
}

func TestTable2(t *testing.T) {
	var buf bytes.Buffer
	rows := Table2(smallOptions(&buf))
	if len(rows) != 16 {
		t.Fatalf("%d rows, want 16", len(rows))
	}
	for _, r := range rows {
		if r.NNZ == 0 || r.Rows == 0 {
			t.Errorf("%s: empty matrix", r.Name)
		}
	}
}

func TestFig8(t *testing.T) {
	var buf bytes.Buffer
	o := smallOptions(&buf)
	rows, err := Fig8(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 4 {
		t.Fatalf("only %d granularities measured", len(rows))
	}
	if rows[0].U != 1 {
		t.Fatalf("first granularity %d, want 1", rows[0].U)
	}
	// The figure's claim: U=1 costs much more than U=100.
	var u1, u100 float64
	for _, r := range rows {
		switch r.U {
		case 1:
			u1 = r.Seconds
		case 100:
			u100 = r.Seconds
		}
	}
	if u1 <= u100 {
		t.Errorf("U=1 (%.3gms) should cost more than U=100 (%.3gms)", u1*1e3, u100*1e3)
	}
	// Group counts shrink with U.
	for i := 1; i < len(rows); i++ {
		if rows[i].GroupsBuilt > rows[i-1].GroupsBuilt {
			t.Errorf("groups grew with larger U: %v", rows)
		}
	}
}

func TestFeatureCmpExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two models")
	}
	var buf bytes.Buffer
	o := &Options{Out: &buf, Scale: 512, CorpusN: 8, MinRows: 128, MaxRows: 384, Seed: 3}
	res, err := FeatureCmp(o)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]float64{
		"basic s1": res.BasicStage1, "basic s2": res.BasicStage2,
		"ext s1": res.ExtendedStage1, "ext s2": res.ExtendedStage2,
	} {
		if v < 0 || v > 1 {
			t.Errorf("%s error rate out of range: %v", name, v)
		}
	}
	if res.BasicRegret.N == 0 || res.ExtendedRegret.N == 0 {
		t.Error("regret not evaluated")
	}
	if !strings.Contains(buf.String(), "histogram") {
		t.Error("missing output")
	}
}

func TestReorderExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	var buf bytes.Buffer
	o := smallOptions(&buf)
	rows, err := Reorder(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 10 {
		t.Fatalf("reorder: only %d square matrices measured", len(rows))
	}
	worse := 0
	for _, r := range rows {
		if r.ShuffledSeconds > r.NaturalSeconds*1.05 {
			worse++
		}
	}
	if worse < len(rows)/3 {
		t.Errorf("shuffling hurt only %d/%d matrices; locality model suspicious", worse, len(rows))
	}
}

// The model-dependent experiments (Fig6/7/9, MLErr) share a trained model;
// run them together on a tiny setup to bound test time.
func TestModelExperimentsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	var buf bytes.Buffer
	o := smallOptions(&buf)

	rows6, ts, err := Fig6(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows6) != 16 {
		t.Fatalf("fig6: %d rows", len(rows6))
	}
	if ts.Corpus != 12 {
		t.Errorf("trained on %d matrices, want 12", ts.Corpus)
	}
	// Auto must beat or match the WORSE default on every matrix, and beat
	// the better default on a solid majority (the paper's headline claim).
	beatsBetter := 0
	for _, r := range rows6 {
		worse := r.SerialSeconds
		if r.VectorSeconds > worse {
			worse = r.VectorSeconds
		}
		if r.AutoSeconds > worse*1.05 {
			t.Errorf("%s: auto (%.3g) worse than the worse default (%.3g)", r.Name, r.AutoSeconds, worse)
		}
		better := r.SerialSeconds
		if r.VectorSeconds < better {
			better = r.VectorSeconds
		}
		if r.AutoSeconds <= better*1.02 {
			beatsBetter++
		}
	}
	if beatsBetter < 10 {
		t.Errorf("auto matches/beats the better default on only %d/16 matrices", beatsBetter)
	}

	rows7, wins, err := Fig7(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows7) != 16 {
		t.Fatalf("fig7: %d rows", len(rows7))
	}
	if wins < 4 {
		t.Errorf("auto wins only %d/16 vs CSR-Adaptive; paper reports 10/16", wins)
	}

	rows9, err := Fig9(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows9) != 6 {
		t.Fatalf("fig9: %d rows, want 6", len(rows9))
	}
	for _, r := range rows9 {
		if len(r.KernelSeconds) != 9 {
			t.Errorf("%s: %d kernel times", r.Name, len(r.KernelSeconds))
		}
	}

	// Queued dispatch reuses the same trained model.
	rowsQ, err := Queued(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rowsQ) != 16 {
		t.Fatalf("queued: %d rows", len(rowsQ))
	}
	for _, r := range rowsQ {
		if r.QueuedSeconds > r.SeqSeconds*1.0001 {
			t.Errorf("%s: queued (%v) slower than sequential (%v)", r.Name, r.QueuedSeconds, r.SeqSeconds)
		}
	}
}

func TestCensus(t *testing.T) {
	var buf bytes.Buffer
	runs, err := Census(smallOptions(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("%d runs, want corpus and representatives", len(runs))
	}
	for _, run := range runs {
		argmin := 0
		for id, n := range run.Argmin {
			if run.Wins[id] > n {
				t.Errorf("%s: point %d wins %d cells but is the argmin of %d", run.Name, id, run.Wins[id], n)
			}
			argmin += n
		}
		// Every cell has exactly one argmin, and the pool is part of the
		// space, so the space's argmin is never slower than the pool's.
		if argmin != run.Cells || run.Cells == 0 {
			t.Errorf("%s: argmin counts sum to %d over %d cells", run.Name, argmin, run.Cells)
		}
		if run.GeoRatio < 1 || run.WorstRatio < run.GeoRatio {
			t.Errorf("%s: pool/space geo-mean %v, worst %v", run.Name, run.GeoRatio, run.WorstRatio)
		}
	}
	if !strings.Contains(buf.String(), "wins>=1%") {
		t.Error("missing table header")
	}
}
