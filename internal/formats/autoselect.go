package formats

import (
	"spmvtune/internal/hsa"
	"spmvtune/internal/sparse"
)

// TieEpsilon is the relative slack of format auto-selection: CSR wins all
// near-ties, and a non-CSR format is chosen only when its modeled time is
// strictly below CSR's — so the selection can never pick a format whose
// modeled cycles exceed CSR's by more than this window (the property the
// format tests pin). It matches the tuning search's tie slack.
const TieEpsilon = 0.08

// AutoSelect evaluates the storage-format dimension of the tuning search:
// the device ELL and HYB kernels are simulated over the whole matrix and
// compared against csrSeconds, the modeled time of the best binned CSR
// configuration. Format cost, like kernel cost, depends only on structure,
// so the launches run on a's value-free view: they are charged and compute
// no product, and a value-free a is scored like its valued original. It
// returns the winning format name and the modeled seconds per candidate.
// Formats that reject the matrix (ELL padding blow-up) are simply absent
// from the map.
//
// The choice is conservative by construction: "csr" unless an alternative
// is strictly faster. Conversion cost is deliberately excluded — the
// paper's argument is that conversion amortizes over an iterative
// workload's many multiplies — so a non-CSR pick means "conversion would
// pay at steady state", not "convert for one SpMV".
func AutoSelect(dev hsa.Config, a *sparse.CSR, csrSeconds float64) (string, map[string]float64) {
	a = &sparse.CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: a.RowPtr, ColIdx: a.ColIdx}
	// Unread by value-free launches; their lengths size the vector regions.
	v, u := make([]float64, a.Cols), make([]float64, a.Rows)

	seconds := map[string]float64{"csr": csrSeconds}
	if e, err := ELLFromCSR(a); err == nil {
		seconds["ell"] = e.SimulateMulVec(dev, v, u).Seconds
	}
	h := HYBFromCSR(a, 0)
	seconds["hyb"] = h.SimulateMulVec(dev, v, u).Seconds

	best := "csr"
	for _, name := range []string{"ell", "hyb"} { // fixed order: determinism
		if s, ok := seconds[name]; ok && s < seconds[best] {
			best = name
		}
	}
	return best, seconds
}
