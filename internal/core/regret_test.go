package core

import (
	"testing"

	"spmvtune/internal/c50"
	"spmvtune/internal/matgen"
	"spmvtune/internal/sparse"
)

func TestEvaluateRegret(t *testing.T) {
	cfg := testConfig()
	corpus := matgen.Corpus(matgen.CorpusOptions{N: 16, MinRows: 256, MaxRows: 1024, Seed: 31})
	td := NewTrainingData(cfg)
	for _, cm := range corpus {
		td.AddMatrix(cfg, cm.A)
	}
	m := TrainModel(td, cfg, c50.DefaultOptions())

	fresh := []*sparse.CSR{
		matgen.RoadNetwork(800, 71),
		matgen.BlockFEM(150, 150, 30, 72),
		matgen.Mixed(600, 600, 30, []int{2, 50}, 73),
		matgen.Banded(700, 7, 74),
	}
	r := EvaluateRegret(cfg, m, fresh)
	if r.N != len(fresh) {
		t.Fatalf("evaluated %d of %d", r.N, len(fresh))
	}
	if r.GeoMean < 1 {
		t.Errorf("geometric mean regret %v < 1", r.GeoMean)
	}
	if r.Worst < r.GeoMean {
		t.Errorf("worst %v below mean %v", r.Worst, r.GeoMean)
	}
	// A model trained on these very families should stay near-optimal.
	if r.GeoMean > 2.0 {
		t.Errorf("mean regret %vx; predictions far from oracle", r.GeoMean)
	}
	if r.WithinX < 0 || r.WithinX > 1 {
		t.Errorf("WithinX = %v", r.WithinX)
	}
	// Degenerate input.
	empty := EvaluateRegret(cfg, m, nil)
	if empty.N != 0 || empty.GeoMean != 0 {
		t.Errorf("empty evaluation: %+v", empty)
	}
}

// TestEvaluateRegretSkipsZeroTimeMatrices: a 0-row matrix takes the model
// and the oracle no time, so it has no ratio. Alone it is not counted, and
// beside a real matrix it leaves that matrix's regret as it is.
func TestEvaluateRegretSkipsZeroTimeMatrices(t *testing.T) {
	cfg := testConfig()
	td := NewTrainingData(cfg)
	td.AddMatrices(cfg, matgen.Matrices(matgen.ValueFreeCorpus(matgen.CorpusOptions{N: 8, MinRows: 256, MaxRows: 768, Seed: 31})))
	m := TrainModel(td, cfg, c50.DefaultOptions())

	empty := &sparse.CSR{Cols: 4, RowPtr: []int64{0}}
	if r := EvaluateRegret(cfg, m, []*sparse.CSR{empty}); r.N != 0 {
		t.Errorf("0-row matrix alone: %+v, want N 0", r)
	}
	real := matgen.Mixed(600, 600, 30, []int{2, 50}, 73)
	want := EvaluateRegret(cfg, m, []*sparse.CSR{real})
	if want.N != 1 {
		t.Fatalf("real matrix alone: %+v, want N 1", want)
	}
	if got := EvaluateRegret(cfg, m, []*sparse.CSR{empty, real, empty}); got != want {
		t.Errorf("with 0-row matrices beside it: %+v, alone %+v", got, want)
	}
}
