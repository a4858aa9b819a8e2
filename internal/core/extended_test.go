package core

import (
	"context"
	"path/filepath"
	"testing"

	"spmvtune/internal/c50"
	"spmvtune/internal/features"
	"spmvtune/internal/matgen"
	"spmvtune/internal/sparse"
)

func extendedConfig() Config {
	cfg := testConfig()
	cfg.ExtendedFeatures = true
	return cfg
}

func TestExtendedFeaturesEndToEnd(t *testing.T) {
	cfg := extendedConfig()
	if len(cfg.FeatureNames()) <= len(features.Names()) {
		t.Fatal("extended names not longer than basic")
	}
	a := matgen.Mixed(600, 600, 30, []int{2, 50}, 1)
	vec := cfg.FeatureVector(a)
	if len(vec) != len(cfg.FeatureNames()) {
		t.Fatalf("vector len %d != names len %d", len(vec), len(cfg.FeatureNames()))
	}

	corpus := matgen.Corpus(matgen.CorpusOptions{N: 12, MinRows: 256, MaxRows: 768, Seed: 3})
	td := NewTrainingData(cfg)
	for _, cm := range corpus {
		td.AddMatrix(cfg, cm.A)
	}
	m := TrainModel(td, cfg, c50.DefaultOptions())
	if !m.Extended {
		t.Fatal("model not marked extended")
	}

	fw := NewFramework(cfg, m)
	v := randVec(a.Cols, 5)
	want := make([]float64, a.Rows)
	a.MulVec(v, want)
	u := make([]float64, a.Rows)
	if _, rep, err := runGuarded(context.Background(), fw, a, v, u, DefaultGuardOptions()); err != nil || rep.Degraded() {
		t.Fatalf("err %v, report %v", err, rep)
	}
	if i := sparse.FirstVecDiff(want, u, 1e-9); i >= 0 {
		t.Errorf("extended-model result wrong at row %d", i)
	}

	// The F-based convenience predictors must refuse extended models.
	defer func() {
		if recover() == nil {
			t.Error("PredictU(F) on extended model should panic")
		}
	}()
	m.PredictU(features.Extract(a))
}

func TestExtendedModelSaveLoad(t *testing.T) {
	cfg := extendedConfig()
	td := NewTrainingData(cfg)
	td.AddMatrix(cfg, matgen.RoadNetwork(300, 7))
	td.AddMatrix(cfg, matgen.BlockFEM(80, 120, 20, 8))
	m := TrainModel(td, cfg, c50.DefaultOptions())
	path := filepath.Join(t.TempDir(), "ext.json")
	if err := SaveModel(path, m); err != nil {
		t.Fatal(err)
	}
	back, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Extended {
		t.Fatal("Extended flag lost in serialization")
	}
	a := matgen.Banded(200, 3, 9)
	vec := cfg.FeatureVector(a)
	if m.PredictUVec(vec) != back.PredictUVec(vec) {
		t.Error("extended model predicts differently after round trip")
	}
}
