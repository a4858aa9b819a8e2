package core

import (
	"math"
	"math/rand"
	"testing"

	"spmvtune/internal/binning"
)

// referenceVerifyBin is verifyBin as it was before equal values were taken
// first, kept as the oracle of TestVerifyBinMatchesReference.
func referenceVerifyBin(u, want []float64, groups []binning.Group, tol float64) (int, bool) {
	for _, g := range groups {
		for r := g.Start; r < g.Start+g.Count; r++ {
			a, b := u[r], want[r]
			if math.IsNaN(a) || math.IsInf(a, 0) {
				if math.IsNaN(a) && math.IsNaN(b) {
					continue
				}
				if a == b { // same infinity
					continue
				}
				return int(r), false
			}
			d := math.Abs(a - b)
			scale := math.Max(math.Abs(a), math.Abs(b))
			if d > tol && d > tol*scale {
				return int(r), false
			}
		}
	}
	return 0, true
}

// TestVerifyBinMatchesReference holds verifyBin to its reference on every
// pair of a table of edge values — signed zeros, infinities, NaN payloads,
// subnormals, values straddling tol absolutely and relatively — under
// several tolerances, and on 10^5 random multi-group bins.
func TestVerifyBinMatchesReference(t *testing.T) {
	tols := []float64{1e-9, 1e-3, 0.5, 5e-324, math.Inf(1), math.NaN()}
	edges := []float64{
		0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000000),
		math.Float64frombits(0x7ff8deadbeef0000),
		5e-324, -5e-324, 3 * 5e-324, math.Float64frombits(0x000fffffffffffff), math.SmallestNonzeroFloat64 * 1e6,
		math.MaxFloat64, -math.MaxFloat64, 1e300, 1e-300,
	}
	for _, tol := range tols {
		// Straddle tol absolutely (around 0) and relatively (around 1e6).
		for _, x := range []float64{tol, 1e6 * (1 + tol)} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			edges = append(edges, x, math.Nextafter(x, 0), math.Nextafter(x, math.Inf(1)), -x)
		}
	}
	edges = append(edges, 1e6)

	for _, tol := range tols {
		for _, a := range edges {
			for _, b := range edges {
				u, want := []float64{a}, []float64{b}
				groups := []binning.Group{{Start: 0, Count: 1}}
				gr, gok := verifyBin(u, want, groups, tol)
				wr, wok := referenceVerifyBin(u, want, groups, tol)
				if gr != wr || gok != wok {
					t.Fatalf("verifyBin(%v, %v, tol %v) = (%d, %v), reference (%d, %v)", a, b, tol, gr, gok, wr, wok)
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(1))
	const rows = 16
	u, want := make([]float64, rows), make([]float64, rows)
	for c := 0; c < 100000; c++ {
		tol := tols[rng.Intn(len(tols))]
		for r := range want {
			want[r] = (rng.Float64()*2 - 1) * math.Pow(10, float64(rng.Intn(40)-20))
			switch k := rng.Intn(8); {
			case k < 4: // the common case: identical output
				u[r] = want[r]
			case k < 6: // a few ulps or a fraction of tol away
				u[r] = want[r] * (1 + (rng.Float64()*4-2)*tol)
				if rng.Intn(2) == 0 {
					u[r] = math.Nextafter(want[r], math.Inf(2*rng.Intn(2)-1))
				}
			default: // an edge value on either side
				u[r] = edges[rng.Intn(len(edges))]
				if rng.Intn(2) == 0 {
					want[r] = edges[rng.Intn(len(edges))]
				}
			}
		}
		var groups []binning.Group
		for start := int32(rng.Intn(3)); start < rows; {
			n := int32(1 + rng.Intn(5))
			n = min(n, rows-start)
			groups = append(groups, binning.Group{Start: start, Count: n})
			start += n + int32(rng.Intn(2))
		}
		gr, gok := verifyBin(u, want, groups, tol)
		wr, wok := referenceVerifyBin(u, want, groups, tol)
		if gr != wr || gok != wok {
			t.Fatalf("case %d: verifyBin(%v, %v, %v, tol %v) = (%d, %v), reference (%d, %v)",
				c, u, want, groups, tol, gr, gok, wr, wok)
		}
	}
}
