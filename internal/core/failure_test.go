package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spmvtune/internal/c50"
	"spmvtune/internal/matgen"
)

// Failure injection: a model file can be truncated, syntactically broken,
// or semantically hollow; LoadModel must reject each with an error rather
// than panicking or returning a half-built model.
func TestLoadModelCorruptInputs(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"empty":         "",
		"not json":      "hello world",
		"wrong shape":   `[1,2,3]`,
		"no us":         `{"maxBins":100,"stage1":{},"stage2":{}}`,
		"empty us":      `{"us":[],"maxBins":100,"stage1":{},"stage2":{}}`,
		"bad stage1":    `{"us":[10],"maxBins":100,"stage1":"zzz","stage2":{}}`,
		"missing roots": `{"us":[10],"maxBins":100,"stage1":{"attrs":[],"classes":[]},"stage2":{"attrs":[],"classes":[]}}`,
		"truncated":     `{"us":[10],"maxBins":100,"stage1":{"att`,
	}
	for name, contents := range cases {
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, []byte(contents), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadModel(path); err == nil {
			t.Errorf("%s: corrupt model accepted", name)
		}
	}
}

// A saved-then-bit-flipped model must still fail cleanly.
func TestLoadModelBitRot(t *testing.T) {
	cfg := testConfig()
	td := NewTrainingData(cfg)
	td.AddMatrix(cfg, matgen.Banded(200, 3, 1))
	m := TrainModel(td, cfg, c50.DefaultOptions())
	path := filepath.Join(t.TempDir(), "m.json")
	if err := SaveModel(path, m); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate in the middle of the stage-2 tree.
	if err := os.WriteFile(path, blob[:len(blob)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(path); err == nil {
		t.Error("truncated model accepted")
	}
}

func TestAddMatrixAfterFinalizePanics(t *testing.T) {
	cfg := testConfig()
	td := NewTrainingData(cfg)
	td.AddMatrix(cfg, matgen.Banded(100, 3, 1))
	td.Finalize()
	defer func() {
		if recover() == nil {
			t.Error("AddMatrix after Finalize should panic")
		}
	}()
	td.AddMatrix(cfg, matgen.Banded(50, 3, 1))
}

func TestFinalizeIdempotent(t *testing.T) {
	cfg := testConfig()
	td := NewTrainingData(cfg)
	td.AddMatrix(cfg, matgen.Banded(100, 3, 1))
	td.Finalize()
	n1, n2 := td.Stage1.Len(), td.Stage2.Len()
	td.Finalize()
	if td.Stage1.Len() != n1 || td.Stage2.Len() != n2 {
		t.Error("second Finalize duplicated samples")
	}
}

// Stage-2 classes are kernel IDs: a model whose class names are not its
// space's kernel names, in order, was trained on another enumeration, so
// LoadModel refuses it instead of serving the wrong kernels by ID.
func TestLoadModelRefusesRenamedStage2Class(t *testing.T) {
	cfg := testConfig()
	td := NewTrainingData(cfg)
	td.AddMatrix(cfg, matgen.Banded(200, 3, 1))
	m := TrainModel(td, cfg, c50.DefaultOptions())
	path := filepath.Join(t.TempDir(), "m.json")
	if err := SaveModel(path, m); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(path); err != nil {
		t.Fatalf("unedited model refused: %v", err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	renamed := bytes.Replace(blob, []byte(`"subvector8"`), []byte(`"synth.t8.rd.f4.seq"`), 1)
	if bytes.Equal(renamed, blob) {
		t.Fatal("saved model names no subvector8 class")
	}
	if err := os.WriteFile(path, renamed, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadModel(path)
	if err == nil || !strings.Contains(err.Error(), `"synth.t8.rd.f4.seq"`) {
		t.Fatalf("LoadModel with a renamed stage-2 class: %v", err)
	}
}
