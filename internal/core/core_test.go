package core

import (
	"context"
	"math/rand"
	"path/filepath"
	"testing"

	"spmvtune/internal/binning"
	"spmvtune/internal/c50"
	"spmvtune/internal/cpu"
	"spmvtune/internal/features"
	"spmvtune/internal/hsa"
	"spmvtune/internal/matgen"
	"spmvtune/internal/sparse"
)

// testConfig shrinks the search space so unit tests stay fast.
func testConfig() Config {
	return Config{
		Device:  hsa.DefaultConfig(),
		MaxBins: 32,
		Us:      []int{10, 50, 200, 1000},
	}
}

func randVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestSimulateSingleKernelCorrect(t *testing.T) {
	a := matgen.Mixed(400, 400, 20, []int{2, 50}, 1)
	v := randVec(a.Cols, 9)
	want := make([]float64, a.Rows)
	a.MulVec(v, want)
	for kid := 0; kid < 9; kid++ {
		u := make([]float64, a.Rows)
		st, err := SimulateSingleKernel(hsa.DefaultConfig(), a, v, u, kid)
		if err != nil {
			t.Fatal(err)
		}
		if st.Seconds <= 0 {
			t.Errorf("kernel %d: nonpositive time", kid)
		}
		if i := sparse.FirstVecDiff(want, u, 1e-9); i >= 0 {
			t.Errorf("kernel %d: row %d wrong", kid, i)
		}
	}
	if _, err := SimulateSingleKernel(hsa.DefaultConfig(), a, v, make([]float64, a.Rows), 99); err == nil {
		t.Error("bad kernel id accepted")
	}
}

func TestSearchLabelsSensibly(t *testing.T) {
	cfg := testConfig()

	// Uniform short rows: serial (or a narrow subvector) must win its bins;
	// vector must never be chosen.
	short := matgen.RoadNetwork(2048, 2)
	res := Search(cfg, short)
	if len(res.BestBins()) == 0 {
		t.Fatal("no bins labeled")
	}
	for _, bl := range res.BestBins() {
		if bl.KernelID >= 7 { // subvector128 or vector
			t.Errorf("short rows: bin %d labeled with wide kernel %d", bl.BinID, bl.KernelID)
		}
	}

	// Very long rows: wide kernels must win.
	long := matgen.BlockFEM(96, 3000, 200, 3)
	resL := Search(cfg, long)
	for _, bl := range resL.BestBins() {
		if bl.KernelID <= 1 {
			t.Errorf("3000-nnz rows: bin %d labeled with narrow kernel %d", bl.BinID, bl.KernelID)
		}
	}

	// Totals are consistent: the recorded best is within the tie slack of
	// the true minimum over PerU (labels are canonicalized to the smallest
	// U among near-ties).
	trueMin := res.PerU[0].Seconds
	for _, ul := range res.PerU {
		if ul.Seconds < trueMin {
			trueMin = ul.Seconds
		}
	}
	if res.Seconds > trueMin*1.03 {
		t.Errorf("recorded best %v more than slack above true min %v", res.Seconds, trueMin)
	}
	if res.KernelByBin()[res.BestBins()[0].BinID] != res.BestBins()[0].KernelID {
		t.Error("KernelByBin inconsistent with BestBins")
	}
}

func TestSearchKernelTimesComplete(t *testing.T) {
	cfg := testConfig()
	a := matgen.Mixed(300, 300, 20, []int{1, 40}, 4)
	res := Search(cfg, a)
	for _, ul := range res.PerU {
		sum := 0.0
		for _, bl := range ul.Bins {
			if len(bl.KernelTimes) != 9 {
				t.Fatalf("bin %d has %d kernel times", bl.BinID, len(bl.KernelTimes))
			}
			chosen := bl.KernelTimes[bl.KernelID]
			for kid, s := range bl.KernelTimes {
				if s <= 0 {
					t.Fatalf("U=%d bin %d kernel %d: time %v", ul.U, bl.BinID, kid, s)
				}
				// Tie canonicalization may prefer a lower kernel ID within
				// the tie slack of the minimum, never worse than that.
				if chosen > s*(1+tieEpsilon)*1.001 {
					t.Fatalf("U=%d bin %d: kernel %d (%v) beats chosen %d (%v) beyond slack",
						ul.U, bl.BinID, kid, s, bl.KernelID, chosen)
				}
			}
			sum += chosen
		}
		if diff := sum - ul.Seconds; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("U=%d: per-bin sum %v != total %v", ul.U, sum, ul.Seconds)
		}
	}
}

// End-to-end: train on a small corpus, then the framework must (a) produce
// correct SpMV results and (b) never be dramatically worse than the best
// single kernel on fresh matrices from the same families.
func TestTrainPredictExecuteEndToEnd(t *testing.T) {
	cfg := testConfig()
	corpus := matgen.Corpus(matgen.CorpusOptions{N: 24, MinRows: 256, MaxRows: 1024, Seed: 5})
	td := NewTrainingData(cfg)
	for _, cm := range corpus {
		td.AddMatrix(cfg, cm.A)
	}
	td.Finalize()
	if td.Stage1.Len() != len(corpus) {
		t.Fatalf("stage1 has %d samples, want %d", td.Stage1.Len(), len(corpus))
	}
	if td.Stage2.Len() < len(corpus)*len(cfg.Us) {
		t.Fatalf("stage2 has %d samples, want >= %d", td.Stage2.Len(), len(corpus)*len(cfg.Us))
	}

	m := TrainModel(td, cfg, c50.DefaultOptions())
	fw := NewFramework(cfg, m)

	fresh := []*sparse.CSR{
		matgen.RoadNetwork(1500, 91),
		matgen.BlockFEM(200, 180, 40, 92),
		matgen.Mixed(800, 800, 40, []int{2, 60}, 93),
	}
	for mi, a := range fresh {
		v := randVec(a.Cols, int64(mi))
		want := make([]float64, a.Rows)
		a.MulVec(v, want)

		u := make([]float64, a.Rows)
		d, rep, err := runGuarded(context.Background(), fw, a, v, u, DefaultGuardOptions())
		if err != nil || rep.Degraded() {
			t.Fatalf("matrix %d: err %v, report %v (decision %v)", mi, err, rep, d)
		}
		st := rep.Stats
		if i := sparse.FirstVecDiff(want, u, 1e-9); i >= 0 {
			t.Errorf("matrix %d: auto-tuned result wrong at row %d", mi, i)
		}
		// Sanity bound: auto should not be worse than 3x the better of the
		// two default kernels (the paper's claim is that it is better).
		uS := make([]float64, a.Rows)
		sSerial, _ := SimulateSingleKernel(cfg.Device, a, v, uS, 0)
		sVector, _ := SimulateSingleKernel(cfg.Device, a, v, uS, 8)
		best := sSerial.Seconds
		if sVector.Seconds < best {
			best = sVector.Seconds
		}
		if st.Seconds > 3*best {
			t.Errorf("matrix %d: auto %.3g s vs best default %.3g s (decision %v)",
				mi, st.Seconds, best, d)
		}

		// CPU execution path must also be correct.
		uc := make([]float64, a.Rows)
		_, b := fw.Decide(a)
		cpu.MulVecBinned(a, v, uc, b, 4)
		if i := sparse.FirstVecDiff(want, uc, 1e-9); i >= 0 {
			t.Errorf("matrix %d: CPU auto result wrong at row %d", mi, i)
		}
	}
}

func TestModelPredictBounds(t *testing.T) {
	cfg := testConfig()
	td := NewTrainingData(cfg)
	// Tiny corpus: two shapes.
	td.AddMatrix(cfg, matgen.RoadNetwork(500, 1))
	td.AddMatrix(cfg, matgen.BlockFEM(100, 200, 20, 2))
	m := TrainModel(td, cfg, c50.DefaultOptions())

	f := features.Extract(matgen.Banded(300, 5, 3))
	u := m.PredictU(f)
	found := false
	for _, cu := range cfg.Us {
		if cu == u {
			found = true
		}
	}
	if !found {
		t.Errorf("predicted U=%d not in candidate set", u)
	}
	kid := m.PredictKernel(f, u, 0, 100, 5)
	if kid < 0 || kid > 8 {
		t.Errorf("predicted kernel %d out of pool", kid)
	}
}

func TestModelSaveLoadRoundTrip(t *testing.T) {
	cfg := testConfig()
	td := NewTrainingData(cfg)
	td.AddMatrix(cfg, matgen.RoadNetwork(400, 7))
	td.AddMatrix(cfg, matgen.BlockFEM(80, 150, 30, 8))
	m := TrainModel(td, cfg, c50.DefaultOptions())

	path := filepath.Join(t.TempDir(), "model.json")
	if err := SaveModel(path, m); err != nil {
		t.Fatal(err)
	}
	back, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	probe := []*sparse.CSR{matgen.Banded(200, 3, 9), matgen.BlockFEM(50, 100, 10, 10)}
	for _, a := range probe {
		f := features.Extract(a)
		if m.PredictU(f) != back.PredictU(f) {
			t.Error("PredictU changed after round trip")
		}
		u := m.PredictU(f)
		for binID := 0; binID < 5; binID++ {
			if m.PredictKernel(f, u, binID, 64, 5) != back.PredictKernel(f, u, binID, 64, 5) {
				t.Error("PredictKernel changed after round trip")
			}
		}
	}
	if _, err := LoadModel(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing model file accepted")
	}
}

func TestErrorsTwoStage(t *testing.T) {
	cfg := testConfig()
	corpus := matgen.Corpus(matgen.CorpusOptions{N: 20, MinRows: 256, MaxRows: 768, Seed: 11})
	td := NewTrainingData(cfg)
	for _, cm := range corpus {
		td.AddMatrix(cfg, cm.A)
	}
	tr1, te1 := td.Stage1.Split(0.75, 1)
	tr2, te2 := td.Stage2.Split(0.75, 1)
	m := &Model{Us: cfg.Us, MaxBins: cfg.MaxBins,
		Stage1: c50.Train(tr1, c50.DefaultOptions()),
		Stage2: c50.Train(tr2, c50.DefaultOptions())}
	e1, e2 := m.Errors(&TrainingData{Stage1: te1, Stage2: te2, Us: cfg.Us})
	if e1 < 0 || e1 > 1 || e2 < 0 || e2 > 1 {
		t.Errorf("error rates out of range: %v %v", e1, e2)
	}
}

func TestSimulateBinnedErrors(t *testing.T) {
	a := matgen.Banded(100, 3, 1)
	v := make([]float64, a.Cols)
	u := make([]float64, a.Rows)
	b := binning.Coarse(a, 10, 16)
	if _, err := SimulateBinned(context.Background(), hsa.DefaultConfig(), a, v, u, b, map[int]int{}); err == nil {
		t.Error("missing bin assignment accepted")
	}
	bad := map[int]int{}
	for _, id := range b.NonEmpty() {
		bad[id] = 99
	}
	if _, err := SimulateBinned(context.Background(), hsa.DefaultConfig(), a, v, u, b, bad); err == nil {
		t.Error("unknown kernel id accepted")
	}
}

func TestDecisionString(t *testing.T) {
	d := Decision{U: 50, KernelByBin: map[int]int{2: 0, 0: 8}}
	s := d.String()
	if s != "U=50: bin0->vector bin2->serial" {
		t.Errorf("Decision.String() = %q", s)
	}
}
