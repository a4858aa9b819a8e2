package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"spmvtune/internal/plan"
)

// The subcommand functions are exercised end-to-end through temp files;
// they print to stdout, so assertions are on errors and side effects.

func TestCmdGenAllKinds(t *testing.T) {
	dir := t.TempDir()
	for _, kind := range []string{"road", "banded", "powerlaw", "blockfem", "bipartite", "single"} {
		out := filepath.Join(dir, kind+".mtx")
		if err := cmdGen([]string{"-kind", kind, "-rows", "500", "-out", out}); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if fi, err := os.Stat(out); err != nil || fi.Size() == 0 {
			t.Fatalf("%s: output missing", kind)
		}
	}
	if err := cmdGen([]string{"-kind", "nope", "-out", filepath.Join(dir, "x.mtx")}); err == nil {
		t.Error("unknown generator accepted")
	}
}

func TestCmdFeaturesAndBin(t *testing.T) {
	dir := t.TempDir()
	mtx := filepath.Join(dir, "m.mtx")
	if err := cmdGen([]string{"-kind", "road", "-rows", "2000", "-out", mtx}); err != nil {
		t.Fatal(err)
	}
	if err := cmdFeatures([]string{"-in", mtx}); err != nil {
		t.Fatal(err)
	}
	if err := cmdFeatures([]string{}); err == nil {
		t.Error("missing -in accepted")
	}
	if err := cmdBin([]string{"-in", mtx, "-u", "10"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdBin([]string{"-in", filepath.Join(dir, "missing.mtx")}); err == nil {
		t.Error("missing file accepted")
	}
	if err := cmdConvert([]string{"-in", mtx}); err != nil {
		t.Fatal(err)
	}
	if err := cmdConvert([]string{}); err == nil {
		t.Error("convert without -in accepted")
	}
}

func TestCmdTrainPredictRunCompare(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	dir := t.TempDir()
	model := filepath.Join(dir, "model.json")
	if err := cmdTrain([]string{"-out", model, "-corpus", "6", "-minrows", "256", "-maxrows", "1024"}); err != nil {
		t.Fatal(err)
	}
	mtx := filepath.Join(dir, "m.mtx")
	if err := cmdGen([]string{"-kind", "blockfem", "-rows", "400", "-param", "80", "-out", mtx}); err != nil {
		t.Fatal(err)
	}
	if err := cmdPredict([]string{"-in", mtx, "-model", model}); err != nil {
		t.Fatal(err)
	}
	// -plan prints the TuningPlan as decodable JSON without executing.
	out := captureStdout(t, func() {
		if err := cmdPredict([]string{"-in", mtx, "-model", model, "-plan"}); err != nil {
			t.Error(err)
		}
	})
	p, err := plan.Decode([]byte(out))
	if err != nil {
		t.Fatalf("predict -plan output does not decode: %v\n%s", err, out)
	}
	if p.Rows != 400 || len(p.Bins) == 0 || p.Fingerprint == "" {
		t.Errorf("implausible plan: %s", p)
	}
	if err := cmdRun([]string{"-in", mtx, "-model", model}); err != nil {
		t.Fatal(err)
	}
	if err := cmdCompare([]string{"-in", mtx, "-model", model}); err != nil {
		t.Fatal(err)
	}
	// Bad model path surfaces cleanly.
	if err := cmdRun([]string{"-in", mtx, "-model", filepath.Join(dir, "nope.json")}); err == nil {
		t.Error("missing model accepted")
	}
}

// TestCmdTrainRejectsBadRowBounds: negative or inverted corpus row bounds
// fail before any labelling instead of training on empty matrices.
func TestCmdTrainRejectsBadRowBounds(t *testing.T) {
	out := filepath.Join(t.TempDir(), "model.json")
	for _, rows := range [][]string{{"-minrows", "-1"}, {"-minrows", "900", "-maxrows", "300"}} {
		if err := cmdTrain(append([]string{"-out", out, "-corpus", "4"}, rows...)); err == nil {
			t.Errorf("train %v accepted", rows)
		}
	}
}

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// everything written.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = old }()
	fn()
	w.Close()
	blob, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}
