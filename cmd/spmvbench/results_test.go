package main

import (
	"path/filepath"
	"strings"
	"testing"
)

func sampleResults(scale float64) *Results {
	return &Results{
		Schema: Schema,
		Cases: []Case{
			{Name: "road-0001", Family: "road", Rows: 100, NNZ: 500, Cycles: 1000 * scale},
			{Name: "blockfem-0002", Family: "blockfem", Rows: 200, NNZ: 9000, Cycles: 4000 * scale},
		},
	}
}

func TestResultsRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	r := sampleResults(1)
	r.GoVersion = "go1.24.0"
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadResults(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != Schema || got.GoVersion != "go1.24.0" || len(got.Cases) != 2 {
		t.Fatalf("round trip mangled results: %+v", got)
	}
	if got.Cases[0] != r.Cases[0] || got.Cases[1] != r.Cases[1] {
		t.Fatalf("cases differ after round trip: %+v vs %+v", got.Cases, r.Cases)
	}
}

func TestReadResultsRejectsWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	r := sampleResults(1)
	r.Schema = "spmvbench/v0"
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadResults(path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("wrong schema accepted: err = %v", err)
	}
}

func TestCompareClean(t *testing.T) {
	base := sampleResults(1)
	cur := sampleResults(1.2) // +20%, under the 25% threshold
	if regs := Compare(base, cur, 1.25); len(regs) != 0 {
		t.Fatalf("clean run flagged: %v", regs)
	}
}

// TestCompareFailsOnDoubledCycles is the injected-regression check the CI
// gate depends on: a 2x cycle blowup must be reported.
func TestCompareFailsOnDoubledCycles(t *testing.T) {
	base := sampleResults(1)
	cur := sampleResults(2)
	regs := Compare(base, cur, 1.25)
	if len(regs) != 2 {
		t.Fatalf("2x regression produced %d findings, want 2: %v", len(regs), regs)
	}
	if !strings.Contains(regs[0], "2.00x") {
		t.Errorf("regression line lacks the ratio: %q", regs[0])
	}
}

func TestCompareMissingCase(t *testing.T) {
	base := sampleResults(1)
	cur := &Results{Schema: Schema, Cases: base.Cases[:1]}
	regs := Compare(base, cur, 1.25)
	if len(regs) != 1 || !strings.Contains(regs[0], "missing") {
		t.Fatalf("dropped case not reported: %v", regs)
	}
}

func TestCompareNewCasesAllowed(t *testing.T) {
	base := &Results{Schema: Schema, Cases: sampleResults(1).Cases[:1]}
	cur := sampleResults(1)
	if regs := Compare(base, cur, 1.25); len(regs) != 0 {
		t.Fatalf("new case flagged as regression: %v", regs)
	}
}

// TestCheckSearch locks the search-gate semantics: non-identical labels
// fail on every host, and the wall-clock speedup is never gated.
func TestCheckSearch(t *testing.T) {
	if regs := CheckSearch(nil); len(regs) != 0 {
		t.Fatalf("nil search bench flagged: %v", regs)
	}
	diverged := &SearchBench{Workers: 8, HostCPUs: 16, Speedup: 5, Identical: false}
	if regs := CheckSearch(diverged); len(regs) != 1 || !strings.Contains(regs[0], "determinism") {
		t.Fatalf("divergent labels not flagged: %v", regs)
	}
	slow := &SearchBench{Workers: 8, HostCPUs: 16, Speedup: 0.4, Identical: true}
	if regs := CheckSearch(slow); len(regs) != 0 {
		t.Fatalf("wall-clock speedup gated: %v", regs)
	}
}

// TestCheckBatch locks the batch-gate semantics: every check runs over
// deterministic modeled quantities, so non-identical results, isolated
// vectors, and a missed per-request ratio all fail on any host, and 0
// disables only the ratio gate.
func TestCheckBatch(t *testing.T) {
	if regs := CheckBatch(nil, 0.6); len(regs) != 0 {
		t.Fatalf("nil batch bench flagged: %v", regs)
	}
	diverged := &BatchBench{Vectors: 8, CyclesPerRequestRatio: 0.3, Identical: false}
	if regs := CheckBatch(diverged, 0.6); len(regs) != 1 || !strings.Contains(regs[0], "byte-identity") {
		t.Fatalf("divergent results not flagged: %v", regs)
	}
	isolated := &BatchBench{Vectors: 8, CyclesPerRequestRatio: 0.3, Identical: true, Isolated: 2}
	if regs := CheckBatch(isolated, 0.6); len(regs) != 1 || !strings.Contains(regs[0], "isolated") {
		t.Fatalf("fault-free isolation not flagged: %v", regs)
	}
	slow := &BatchBench{Vectors: 8, CyclesPerRequestRatio: 0.9, Identical: true}
	if regs := CheckBatch(slow, 0.6); len(regs) != 1 || !strings.Contains(regs[0], "cycles-per-request") {
		t.Fatalf("missed ratio gate not flagged: %v", regs)
	}
	if regs := CheckBatch(slow, 0); len(regs) != 0 {
		t.Fatalf("disabled ratio gate still flagged: %v", regs)
	}
	clean := &BatchBench{Vectors: 8, CyclesPerRequestRatio: 0.35, Identical: true}
	if regs := CheckBatch(clean, 0.6); len(regs) != 0 {
		t.Fatalf("clean batch bench flagged: %v", regs)
	}
}

// TestCheckTune locks the tune-gate semantics: divergent labels always
// fail, the floor is on the simulated-launch ratio (an exact count, so it is
// enforced on every host) and never on the wall-clock speedup, and 0
// disables the floor but never the equivalence check.
func TestCheckTune(t *testing.T) {
	if regs := CheckTune(nil, 3); len(regs) != 0 {
		t.Fatalf("nil tune bench flagged: %v", regs)
	}
	diverged := &TuneBench{HostCPUs: 1, SimRatio: 5, Identical: false}
	if regs := CheckTune(diverged, 3); len(regs) != 1 || !strings.Contains(regs[0], "determinism") {
		t.Fatalf("divergent labels not flagged: %v", regs)
	}
	wasteful := &TuneBench{HostCPUs: 1, Speedup: 5, LegacySims: 1400, TunedSims: 1000, SimRatio: 1.4, Identical: true}
	if regs := CheckTune(wasteful, 3); len(regs) != 1 || !strings.Contains(regs[0], "simulated") {
		t.Fatalf("missed simulated-launch floor not flagged: %v", regs)
	}
	if regs := CheckTune(wasteful, 0); len(regs) != 0 {
		t.Fatalf("disabled floor still flagged: %v", regs)
	}
	slowHost := &TuneBench{HostCPUs: 16, Speedup: 1.2, LegacySims: 4200, TunedSims: 1000, SimRatio: 4.2, Identical: true}
	if regs := CheckTune(slowHost, 3); len(regs) != 0 {
		t.Fatalf("wall-clock speedup gated: %v", regs)
	}
}
