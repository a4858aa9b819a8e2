package formats

import (
	"testing"

	"spmvtune/internal/hsa"
	"spmvtune/internal/matgen"
	"spmvtune/internal/sparse"
)

// The paper's motivating claim (Section I): "the transformation between
// different formats is non-negligible in terms of performance". These
// benchmarks quantify the conversion cost next to the cost of a single
// SpMV in the target format — the break-even the paper argues against
// paying.

func convMatrix() *sparse.CSR { return matgen.Banded(200000, 9, 1) }

func BenchmarkConvertCSRToELL(b *testing.B) {
	a := convMatrix()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ELLFromCSR(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConvertCSRToDIA(b *testing.B) {
	a := convMatrix()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DIAFromCSR(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConvertCSRToHYB(b *testing.B) {
	a := convMatrix()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HYBFromCSR(a, 0)
	}
}

func BenchmarkConvertCSRToCOO(b *testing.B) {
	a := convMatrix()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sparse.FromCSR(a)
	}
}

// Sequential SpMV per format on the same matrix, for the break-even ratio.
func BenchmarkSpMVCSR(b *testing.B) {
	a := convMatrix()
	v := make([]float64, a.Cols)
	u := make([]float64, a.Rows)
	b.SetBytes(int64(a.NNZ() * 12))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulVec(v, u)
	}
}

func BenchmarkSpMVELL(b *testing.B) {
	a := convMatrix()
	e, err := ELLFromCSR(a)
	if err != nil {
		b.Fatal(err)
	}
	v := make([]float64, a.Cols)
	u := make([]float64, a.Rows)
	b.SetBytes(int64(a.NNZ() * 12))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.MulVec(v, u)
	}
}

func BenchmarkSpMVDIA(b *testing.B) {
	a := convMatrix()
	d, err := DIAFromCSR(a)
	if err != nil {
		b.Fatal(err)
	}
	v := make([]float64, a.Cols)
	u := make([]float64, a.Rows)
	b.SetBytes(int64(a.NNZ() * 12))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.MulVec(v, u)
	}
}

func BenchmarkSpMVHYB(b *testing.B) {
	a := convMatrix()
	h := HYBFromCSR(a, 0)
	v := make([]float64, a.Cols)
	u := make([]float64, a.Rows)
	b.SetBytes(int64(a.NNZ() * 12))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.MulVec(v, u)
	}
}

// Simulated-device ELL kernel vs its padding waste: uniform vs skewed.
func BenchmarkSimELLUniform(b *testing.B) {
	a := matgen.Banded(16384, 7, 2)
	e, err := ELLFromCSR(a)
	if err != nil {
		b.Fatal(err)
	}
	v := make([]float64, a.Cols)
	u := make([]float64, a.Rows)
	var sim float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := e.SimulateMulVec(hsa.DefaultConfig(), v, u)
		sim = st.Seconds * 1e3
	}
	b.ReportMetric(sim, "sim-ms/op")
}

func BenchmarkSimELLSkewed(b *testing.B) {
	a := matgen.RandomUniform(16384, 16384, 1, 64, 3)
	e, err := ELLFromCSR(a)
	if err != nil {
		b.Fatal(err)
	}
	v := make([]float64, a.Cols)
	u := make([]float64, a.Rows)
	var sim float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := e.SimulateMulVec(hsa.DefaultConfig(), v, u)
		sim = st.Seconds * 1e3
	}
	b.ReportMetric(sim, "sim-ms/op")
}

// Simulated-device HYB and COO kernels: the device-cost side of the format
// dimension that the synthesized-space search weighs against binned CSR.
func BenchmarkSimHYBSkewed(b *testing.B) {
	a := matgen.PowerLaw(16384, 6, 1.9, 512, 2)
	h := HYBFromCSR(a, 0)
	v := make([]float64, a.Cols)
	u := make([]float64, a.Rows)
	var sim float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := h.SimulateMulVec(hsa.DefaultConfig(), v, u)
		sim = st.Seconds * 1e3
	}
	b.ReportMetric(sim, "sim-ms/op")
}

func BenchmarkSimCOO(b *testing.B) {
	a := matgen.RandomUniform(16384, 16384, 1, 32, 5)
	c := sparse.FromCSR(a)
	v := make([]float64, a.Cols)
	u := make([]float64, a.Rows)
	var sim float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := SimulateCOOMulVec(hsa.DefaultConfig(), c, v, u)
		sim = st.Seconds * 1e3
	}
	b.ReportMetric(sim, "sim-ms/op")
}
