package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"spmvtune/internal/binning"
	"spmvtune/internal/matgen"
	"spmvtune/internal/sparse"
)

// referenceDotRows is DotRows as it was before its loop invariants were
// hoisted: every bound and slice re-read through a on every non-zero. It is
// the oracle of TestDotRowsMatchesReference.
func referenceDotRows(a *sparse.CSR, vs, us [][]float64, groups []binning.Group) {
	for _, g := range groups {
		for b, v := range vs {
			u := us[b]
			for r := g.Start; r < g.Start+g.Count; r++ {
				sum := 0.0
				for k := a.RowPtr[r]; k < a.RowPtr[r+1]; k++ {
					sum += a.Val[k] * v[a.ColIdx[k]]
				}
				u[r] = sum
			}
		}
	}
}

var dotRowsOddValues = []float64{
	0, math.Copysign(0, -1), 1e-310, -5e-324, math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(), 1.0 / 3,
}

func dotRowsValue(rng *rand.Rand) float64 {
	if rng.Intn(10) == 0 {
		return dotRowsOddValues[rng.Intn(len(dotRowsOddValues))]
	}
	return rng.NormFloat64()
}

// dotRowsMatrix builds a CSR with empty rows, one row of 10^4 non-zeros,
// repeated columns and non-finite and subnormal values.
func dotRowsMatrix(rng *rand.Rand) *sparse.CSR {
	rows, cols := 200+rng.Intn(200), 1+rng.Intn(500)
	long := rng.Intn(rows)
	a := &sparse.CSR{Rows: rows, Cols: cols, RowPtr: make([]int64, rows+1)}
	for r := 0; r < rows; r++ {
		n := 0
		switch {
		case r == long:
			n = 10000
		case rng.Intn(4) > 0:
			n = 1 + rng.Intn(24)
		}
		for k := 0; k < n; k++ {
			a.ColIdx = append(a.ColIdx, int32(rng.Intn(cols)))
			a.Val = append(a.Val, dotRowsValue(rng))
		}
		a.RowPtr[r+1] = int64(len(a.ColIdx))
	}
	return a
}

// dotRowsGroups covers a random subset of the rows with runs of random
// length, in random order.
func dotRowsGroups(rng *rand.Rand, rows int) []binning.Group {
	var groups []binning.Group
	for r := 0; r < rows; {
		n := 1 + rng.Intn(40)
		if r+n > rows {
			n = rows - r
		}
		if rng.Intn(3) > 0 {
			groups = append(groups, binning.Group{Start: int32(r), Count: int32(n)})
		}
		r += n
	}
	rng.Shuffle(len(groups), func(i, j int) { groups[i], groups[j] = groups[j], groups[i] })
	return groups
}

// TestDotRowsMatchesReference holds DotRows to its pre-hoisting copy bit for
// bit, rows outside the groups included (both must leave them untouched).
func TestDotRowsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	sentinel := math.Float64frombits(0x7ff8_dead_beef_0001)
	for trial := 0; trial < 12; trial++ {
		a := dotRowsMatrix(rng)
		groups := dotRowsGroups(rng, a.Rows)
		for _, nb := range []int{1, 3, 8} {
			vs := make([][]float64, nb)
			got, want := make([][]float64, nb), make([][]float64, nb)
			for b := range vs {
				vs[b] = make([]float64, a.Cols)
				for j := range vs[b] {
					vs[b][j] = dotRowsValue(rng)
				}
				got[b], want[b] = make([]float64, a.Rows), make([]float64, a.Rows)
				for r := range got[b] {
					got[b][r], want[b][r] = sentinel, sentinel
				}
			}
			DotRows(a, vs, got, groups)
			referenceDotRows(a, vs, want, groups)
			for b := range got {
				for r := range got[b] {
					if math.Float64bits(got[b][r]) != math.Float64bits(want[b][r]) {
						t.Fatalf("trial %d B=%d: vector %d row %d: DotRows %v, reference %v",
							trial, nb, b, r, got[b][r], want[b][r])
					}
				}
			}
		}
	}
}

// BenchmarkDotRows compares DotRows with its pre-hoisting copy on the
// serving benchmark's spmv_fused matrix, one and eight vectors at a time.
func BenchmarkDotRows(b *testing.B) {
	a := matgen.Mixed(4000, 4000, 2000, []int{4, 28}, 1)
	groups := binning.Single(a).Bins[0]
	for _, nb := range []int{1, 8} {
		vs, us := make([][]float64, nb), make([][]float64, nb)
		for i := range vs {
			vs[i], us[i] = make([]float64, a.Cols), make([]float64, a.Rows)
		}
		for _, impl := range []struct {
			name string
			fn   func(*sparse.CSR, [][]float64, [][]float64, []binning.Group)
		}{{"reference", referenceDotRows}, {"hoisted", DotRows}} {
			b.Run(fmt.Sprintf("%s/B=%d", impl.name, nb), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					impl.fn(a, vs, us, groups)
				}
			})
		}
	}
}
