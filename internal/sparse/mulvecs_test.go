package sparse_test

import (
	"math"
	"math/rand"
	"testing"

	"spmvtune/internal/matgen"
	"spmvtune/internal/sparse"
)

// specials are the values a bitwise comparison has to get right: signed
// zeros, subnormals, infinities and NaN.
var specials = []float64{
	math.Copysign(0, -1), 0, 5e-324, -2.2250738585072e-310, math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64,
}

// spiced returns a copy of x with about one element in eight replaced by a
// special value.
func spiced(rng *rand.Rand, x []float64) []float64 {
	y := append([]float64(nil), x...)
	for i := range y {
		if rng.Intn(8) == 0 {
			y[i] = specials[rng.Intn(len(specials))]
		}
	}
	return y
}

// mulVecsCases are the differential test's matrices: the matgen families,
// empty rows, and one row of 10^4 non-zeros, each also with special values.
func mulVecsCases(rng *rand.Rand) map[string]*sparse.CSR {
	long := &sparse.CSR{Rows: 3, Cols: 10000, RowPtr: []int64{0, 0, 10000, 10000}}
	for k := 0; k < 10000; k++ {
		long.ColIdx = append(long.ColIdx, int32(k))
		long.Val = append(long.Val, rng.NormFloat64())
	}
	base := map[string]*sparse.CSR{
		"figure1":    sparse.Figure1(),
		"mixed":      matgen.Mixed(400, 400, 200, []int{4, 28}, 1),
		"blockfem":   matgen.BlockFEM(200, 20, 3, 2),
		"powerlaw":   matgen.PowerLaw(300, 6, 2.1, 120, 3),
		"poisson":    matgen.Poisson2D(15),
		"bipartite":  matgen.Bipartite(50, 700, 8, 4),
		"single-nnz": matgen.SingleNNZRows(257, 40, 6),
		"empty-rows": {Rows: 5, Cols: 3, RowPtr: []int64{0, 0, 2, 2, 2, 3}, ColIdx: []int32{0, 2, 1}, Val: []float64{1, -1, 2}},
		"no-rows":    {Rows: 0, Cols: 4, RowPtr: []int64{0}},
		"no-cols":    {Rows: 3, Cols: 0, RowPtr: []int64{0, 0, 0, 0}},
		"long-row":   long,
	}
	cases := make(map[string]*sparse.CSR, 2*len(base))
	for name, a := range base {
		odd := a.Clone()
		odd.Val = spiced(rng, odd.Val)
		cases[name], cases[name+"-odd"] = a, odd
	}
	return cases
}

// TestMulVecsCheckedMatchesMulVec holds MulVecsChecked to B separate MulVec
// calls, bit for bit, for B in 1..17 — every split of a coalesced batch into
// widths 8, 4 and single walks — and MulVecsRowsChecked over three row
// ranges that tile the matrix to the same bits.
func TestMulVecsCheckedMatchesMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	var scratch []float64
	for name, a := range mulVecsCases(rng) {
		for nb := 1; nb <= 17; nb++ {
			vs := make([][]float64, nb)
			want := make([][]float64, nb)
			got := make([][]float64, nb)
			for b := range vs {
				vs[b] = make([]float64, a.Cols)
				for c := range vs[b] {
					vs[b][c] = rng.NormFloat64()
				}
				vs[b] = spiced(rng, vs[b])
				want[b] = make([]float64, a.Rows)
				a.MulVec(vs[b], want[b])
				got[b] = make([]float64, a.Rows)
			}
			check := func(how string) {
				t.Helper()
				for b := range want {
					for i := range want[b] {
						if math.Float64bits(got[b][i]) != math.Float64bits(want[b][i]) {
							t.Fatalf("%s B=%d %s: vector %d row %d: got %v, MulVec %v", name, nb, how, b, i, got[b][i], want[b][i])
						}
					}
				}
			}
			fill(got, math.NaN())
			if err := a.MulVecsChecked(vs, got, &scratch); err != nil {
				t.Fatalf("%s B=%d: %v", name, nb, err)
			}
			check("whole")
			fill(got, math.NaN())
			cut1, cut2 := a.Rows/3, 2*a.Rows/3
			for _, r := range [][2]int{{0, cut1}, {cut1, cut2}, {cut2, a.Rows}} {
				if err := a.MulVecsRowsChecked(vs, got, r[0], r[1], &scratch); err != nil {
					t.Fatalf("%s B=%d rows %v: %v", name, nb, r, err)
				}
			}
			check("tiled")
		}
	}
}

func fill(us [][]float64, f float64) {
	for _, u := range us {
		for i := range u {
			u[i] = f
		}
	}
}

// BenchmarkMulVecs backs the walk's group width: B = 8 vectors through
// eight MulVec walks and through one MulVecsChecked call, on spmv_fused's
// Mixed matrix and three other families.
func BenchmarkMulVecs(b *testing.B) {
	const nb = 8
	for _, m := range []struct {
		name string
		a    *sparse.CSR
	}{
		{"Mixed", matgen.Mixed(4000, 4000, 2000, []int{4, 28}, 1)},
		{"BlockFEM", matgen.BlockFEM(2000, 200, 30, 1)},
		{"PowerLaw", matgen.PowerLaw(6000, 6, 2.1, 800, 1)},
		{"Poisson", matgen.Poisson2D(120)},
	} {
		a := m.a
		rng := rand.New(rand.NewSource(1))
		vs := make([][]float64, nb)
		us := make([][]float64, nb)
		for i := range vs {
			vs[i] = make([]float64, a.Cols)
			for c := range vs[i] {
				vs[i][c] = rng.NormFloat64()
			}
			us[i] = make([]float64, a.Rows)
		}
		b.Run(m.name+"/mulvec", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j := range vs {
					a.MulVec(vs[j], us[j])
				}
			}
		})
		var scratch []float64
		b.Run(m.name+"/mulvecs", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := a.MulVecsChecked(vs, us, &scratch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
