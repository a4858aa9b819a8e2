package cpu

import (
	"math/rand"
	"runtime/debug"
	"testing"

	"spmvtune/internal/matgen"
	"spmvtune/internal/sparse"
)

func spmmTestVectors(a *sparse.CSR, nb int, seed int64) ([][]float64, [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	vs := make([][]float64, nb)
	us := make([][]float64, nb)
	for b := range vs {
		vs[b] = make([]float64, a.Cols)
		for i := range vs[b] {
			vs[b][i] = rng.NormFloat64()
		}
		us[b] = make([]float64, a.Rows)
	}
	return vs, us
}

// SpMM over the NNZ partitioner must produce byte-identical outputs to
// per-vector MulVec at every worker count and vector count (whole rows per
// worker keeps the accumulation order fixed).
func TestSpMMByteIdenticalToMulVec(t *testing.T) {
	mats := []*sparse.CSR{
		sparse.Figure1(),
		matgen.Banded(400, 7, 1),
		matgen.PowerLaw(300, 4, 1.8, 150, 3),
		matgen.SingleNNZRows(257, 40, 6),
		matgen.Mixed(333, 333, 10, []int{1, 40, 3}, 7),
	}
	ws := new(SpMMWorkspace)
	for mi, a := range mats {
		for _, nb := range []int{1, 3, 4, 8, 11, 17} {
			vs, us := spmmTestVectors(a, nb, int64(mi+1))
			want := make([][]float64, nb)
			for b := range want {
				want[b] = make([]float64, a.Rows)
				a.MulVec(vs[b], want[b])
			}
			for _, w := range []int{1, 2, 4} {
				for b := range us {
					clear(us[b])
				}
				if err := SpMM(a, vs, us, w, ws); err != nil {
					t.Fatalf("mat %d nb=%d w=%d: %v", mi, nb, w, err)
				}
				for b := range want {
					for i := range want[b] {
						if us[b][i] != want[b][i] {
							t.Fatalf("mat %d nb=%d w=%d: vector %d row %d: got %v want %v",
								mi, nb, w, b, i, us[b][i], want[b][i])
						}
					}
				}
			}
		}
	}
}

// The single-worker SpMM path must allocate nothing in steady state with a
// warmed workspace — the CPU side of the batch zero-alloc discipline.
func TestSpMMZeroAlloc(t *testing.T) {
	a := matgen.Mixed(500, 500, 15, []int{2, 60}, 11)
	vs, us := spmmTestVectors(a, 8, 31)
	ws := new(SpMMWorkspace)
	for i := 0; i < 3; i++ {
		if err := SpMM(a, vs, us, 1, ws); err != nil {
			t.Fatal(err)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if n := testing.AllocsPerRun(10, func() {
		if err := SpMM(a, vs, us, 1, ws); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("SpMM workers=1 allocates %v/op, want 0", n)
	}
}

// A corrupt matrix is Validate's error at every worker count, whichever
// worker's rows hold the fault.
func TestSpMMCorruptMatrix(t *testing.T) {
	good := matgen.Banded(300, 5, 2)
	for _, tc := range []struct {
		name   string
		mutate func(*sparse.CSR)
	}{
		{"column past Cols", func(a *sparse.CSR) { a.ColIdx[len(a.ColIdx)-3] = int32(a.Cols) }},
		{"negative column", func(a *sparse.CSR) { a.ColIdx[2] = -1 }},
		{"decreasing rowptr", func(a *sparse.CSR) { a.RowPtr[150] = a.RowPtr[149] - 1 }},
		{"short rowptr", func(a *sparse.CSR) { a.RowPtr = a.RowPtr[:10] }},
	} {
		a := good.Clone()
		tc.mutate(a)
		want := a.Validate()
		vs, us := spmmTestVectors(good, 5, 3)
		for _, w := range []int{1, 2, 4} {
			if err := SpMM(a, vs, us, w, nil); err == nil || err.Error() != want.Error() {
				t.Errorf("%s w=%d: SpMM = %v, Validate = %v", tc.name, w, err, want)
			}
		}
	}
}
