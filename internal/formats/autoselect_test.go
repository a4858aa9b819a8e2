package formats

import (
	"maps"
	"testing"

	"spmvtune/internal/hsa"
	"spmvtune/internal/matgen"
	"spmvtune/internal/sparse"
)

// TestAutoSelectNeverRegressesPastTieEpsilon is the format-dimension safety
// property: over a varied corpus and a sweep of CSR anchor times, the
// selected format's modeled seconds never exceed CSR's by more than the tie
// window (in fact the implementation is stricter — non-CSR only on a strict
// win — but the property is what downstream layers rely on). The test also
// guards against vacuity: the corpus must produce at least one non-CSR pick,
// and every non-CSR pick must be strictly faster than the CSR anchor.
func TestAutoSelectNeverRegressesPastTieEpsilon(t *testing.T) {
	dev := hsa.DefaultConfig()
	corpus := map[string]*sparse.CSR{
		"banded":   matgen.Banded(4096, 7, 1),
		"uniform":  matgen.RandomUniform(2048, 2048, 2, 24, 3),
		"powerlaw": matgen.PowerLaw(2048, 5, 1.9, 256, 4),
		"diagonal": matgen.Diagonal(2048, 2),
		"mixed":    matgen.Mixed(1500, 1000, 300, []int{2, 30, 4, 120}, 9),
	}
	nonCSR := 0
	for name, a := range corpus {
		// Sweep the CSR anchor across regimes: much faster than any format
		// kernel, comparable, and much slower — the pick must be safe in all.
		for _, csrSeconds := range []float64{1e-9, 1e-6, 1e-4, 1e-1} {
			pick, seconds := AutoSelect(dev, a, csrSeconds)
			if seconds["csr"] != csrSeconds {
				t.Fatalf("%s: csr anchor %v recorded as %v", name, csrSeconds, seconds["csr"])
			}
			s, ok := seconds[pick]
			if !ok {
				t.Fatalf("%s: picked %q with no recorded seconds %v", name, pick, seconds)
			}
			if s > csrSeconds*(1+TieEpsilon) {
				t.Fatalf("%s anchor=%v: picked %q at %v, beyond CSR's tie window %v",
					name, csrSeconds, pick, s, csrSeconds*(1+TieEpsilon))
			}
			if pick != "csr" {
				nonCSR++
				if s >= csrSeconds {
					t.Fatalf("%s anchor=%v: non-CSR pick %q not strictly faster (%v >= %v)",
						name, csrSeconds, pick, s, csrSeconds)
				}
			}
			// Determinism: the same inputs must reproduce the same pick and map.
			pick2, seconds2 := AutoSelect(dev, a, csrSeconds)
			if pick2 != pick || len(seconds2) != len(seconds) {
				t.Fatalf("%s anchor=%v: selection not deterministic (%q vs %q)", name, csrSeconds, pick, pick2)
			}
		}
	}
	if nonCSR == 0 {
		t.Fatal("corpus never produced a non-CSR pick (property is vacuous)")
	}
}

// TestAutoSelectSkipsRejectedELL pins the padding guard: a matrix ELL
// refuses (one dense row) must simply be absent from the candidate map,
// never picked.
func TestAutoSelectSkipsRejectedELL(t *testing.T) {
	// One dense row per 100 singleton rows: width 2000 over ~21 nnz/row
	// average blows past MaxELLExpansion.
	lens := make([]int, 100)
	for i := range lens {
		lens[i] = 1
	}
	lens[99] = 2000
	a := matgen.Mixed(3000, 2000, 1, lens, 5)
	if _, err := ELLFromCSR(a); err == nil {
		t.Fatal("matrix unexpectedly ELL-convertible; guard not exercised")
	}
	pick, seconds := AutoSelect(hsa.DefaultConfig(), a, 1e-1)
	if _, ok := seconds["ell"]; ok {
		t.Fatal("rejected ELL present in candidate map")
	}
	if pick == "ell" {
		t.Fatal("rejected ELL picked")
	}
}

// TestAutoSelectGolden pins what AutoSelect returns for the first six
// matrices of spmvd's bootstrap corpus: the pick and every candidate's
// modeled seconds, by exact equality. The CSR anchor of 20 µs sits among
// the format times, so CSR, ELL and HYB each win somewhere. Never
// regenerate the constants.
func TestAutoSelectGolden(t *testing.T) {
	want := []struct {
		format  string
		seconds map[string]float64
	}{
		{"csr", map[string]float64{"csr": 2e-05, "ell": 4.585555555555555e-05, "hyb": 4.168888888888889e-05}},
		{"hyb", map[string]float64{"csr": 2e-05, "hyb": 1.1755555555555556e-05}},
		{"csr", map[string]float64{"csr": 2e-05, "ell": 9.473888888888889e-05, "hyb": 6.471111111111111e-05}},
		{"ell", map[string]float64{"csr": 2e-05, "ell": 5.05e-06, "hyb": 1.0233333333333332e-05}},
		{"hyb", map[string]float64{"csr": 2e-05, "hyb": 1.683888888888889e-05}},
		{"csr", map[string]float64{"csr": 2e-05, "ell": 6.508333333333333e-05, "hyb": 5.827222222222222e-05}},
	}
	corpus := matgen.Corpus(matgen.CorpusOptions{N: 24, MinRows: 256, MaxRows: 2048, Seed: 42})[:6]
	for i, cm := range corpus {
		pick, seconds := AutoSelect(hsa.DefaultConfig(), cm.A, 20e-6)
		if i >= len(want) {
			t.Errorf("%s: no golden", cm.Name)
			continue
		}
		if pick != want[i].format || !maps.Equal(seconds, want[i].seconds) {
			t.Errorf("%s: AutoSelect = %q %v, want %q %v", cm.Name, pick, seconds, want[i].format, want[i].seconds)
		}
	}
}
