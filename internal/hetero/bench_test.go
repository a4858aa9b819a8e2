package hetero

import (
	"context"
	"testing"

	"spmvtune/internal/binning"
	"spmvtune/internal/core"
	"spmvtune/internal/cpu"
	"spmvtune/internal/hsa"
	"spmvtune/internal/matgen"
	"spmvtune/internal/sparse"
)

func heteroMatrix() (*sparse.CSR, *binning.Binning, map[int]int) {
	lens := []int{2, 2, 2, 2, 2, 2, 2, 500}
	a := matgen.Mixed(20000, 20000, 100, lens, 1)
	b := binning.Coarse(a, 10, binning.DefaultMaxBins)
	kb := map[int]int{}
	for _, id := range b.NonEmpty() {
		if b.NumRows(id) >= DefaultRowThreshold {
			kb[id] = 0 // serial for the short-row mass
		} else {
			kb[id] = 8 // vector for the few long rows
		}
	}
	return a, b, kb
}

// Section VI extension: GPU-only binned execution vs the CPU+GPU split.
func BenchmarkGPUOnlyBinned(b *testing.B) {
	a, bin, kb := heteroMatrix()
	v := make([]float64, a.Cols)
	u := make([]float64, a.Rows)
	var sim float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := core.SimulateBinned(context.Background(), hsa.DefaultConfig(), a, v, u, bin, kb)
		if err != nil {
			b.Fatal(err)
		}
		sim = st.Seconds * 1e3
	}
	b.ReportMetric(sim, "sim-ms/op")
}

func BenchmarkHeteroSplit(b *testing.B) {
	a, bin, kb := heteroMatrix()
	v := make([]float64, a.Cols)
	u := make([]float64, a.Rows)
	var total float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Run(hsa.DefaultConfig(), a, v, u, bin, kb, 0, 2)
		if err != nil {
			b.Fatal(err)
		}
		total = rep.TotalSeconds * 1e3
	}
	b.ReportMetric(total, "total-ms/op")
}

// Section IV-C: monolithic binned host execution vs the two-stage pipeline
// that hides binning behind computation.
func BenchmarkHostMonolithic(b *testing.B) {
	a, _, _ := heteroMatrix()
	v := make([]float64, a.Cols)
	u := make([]float64, a.Rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bin := binning.Coarse(a, 10, binning.DefaultMaxBins)
		cpu.MulVecBinned(a, v, u, bin, 2)
	}
}

func BenchmarkHostPipelined(b *testing.B) {
	a, _, _ := heteroMatrix()
	v := make([]float64, a.Cols)
	u := make([]float64, a.Rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PipelinedRun(a, v, u, 10, binning.DefaultMaxBins, 4096, 2)
	}
}
