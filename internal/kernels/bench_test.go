package kernels

import (
	"testing"

	"spmvtune/internal/binning"
	"spmvtune/internal/hsa"
	"spmvtune/internal/matgen"
	"spmvtune/internal/sparse"
)

func benchSim(b *testing.B, dev hsa.Config, a *sparse.CSR, k Kernel) {
	b.Helper()
	v := make([]float64, a.Cols)
	u := make([]float64, a.Rows)
	groups := binning.Single(a).Bins[0]
	var sim float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := hsa.NewRun(dev)
		in := NewInput(run, a, v, u)
		k.Run(run, in, groups)
		sim = run.Stats().Seconds * 1e3
	}
	b.ReportMetric(sim, "sim-ms/op")
}

var serialKernel = Kernel{P: KernelParams{TPR: 1}}

func shortRows() *sparse.CSR  { return matgen.RoadNetwork(4096, 1) }
func mediumRows() *sparse.CSR { return matgen.BlockFEM(1024, 60, 10, 2) }
func longRows() *sparse.CSR   { return matgen.BlockFEM(128, 2000, 100, 3) }

// Per-kernel simulated cost across the three row-length regimes.
func BenchmarkKernelShortSerial(b *testing.B) {
	benchSim(b, hsa.DefaultConfig(), shortRows(), serialKernel)
}
func BenchmarkKernelShortSub8(b *testing.B) {
	benchSim(b, hsa.DefaultConfig(), shortRows(), Kernel{P: KernelParams{TPR: 8}})
}
func BenchmarkKernelShortVector(b *testing.B) {
	benchSim(b, hsa.DefaultConfig(), shortRows(), VectorKernel())
}
func BenchmarkKernelMediumSerial(b *testing.B) {
	benchSim(b, hsa.DefaultConfig(), mediumRows(), serialKernel)
}
func BenchmarkKernelMediumSub16(b *testing.B) {
	benchSim(b, hsa.DefaultConfig(), mediumRows(), Kernel{P: KernelParams{TPR: 16}})
}
func BenchmarkKernelMediumVector(b *testing.B) {
	benchSim(b, hsa.DefaultConfig(), mediumRows(), VectorKernel())
}
func BenchmarkKernelLongSerial(b *testing.B) {
	benchSim(b, hsa.DefaultConfig(), longRows(), serialKernel)
}
func BenchmarkKernelLongSub64(b *testing.B) {
	benchSim(b, hsa.DefaultConfig(), longRows(), Kernel{P: KernelParams{TPR: 64}})
}
func BenchmarkKernelLongVector(b *testing.B) {
	benchSim(b, hsa.DefaultConfig(), longRows(), VectorKernel())
}

// Ablation: the LDS buffering factor of Algorithms 4/5 (paper fixes 4).
func BenchmarkAblationLDSFactor1(b *testing.B) {
	benchSim(b, hsa.DefaultConfig(), mediumRows(), Kernel{P: KernelParams{TPR: 16, LDSFactor: 1}})
}
func BenchmarkAblationLDSFactor2(b *testing.B) {
	benchSim(b, hsa.DefaultConfig(), mediumRows(), Kernel{P: KernelParams{TPR: 16, LDSFactor: 2}})
}
func BenchmarkAblationLDSFactor4(b *testing.B) {
	benchSim(b, hsa.DefaultConfig(), mediumRows(), Kernel{P: KernelParams{TPR: 16, LDSFactor: 4}})
}
func BenchmarkAblationLDSFactor8(b *testing.B) {
	benchSim(b, hsa.DefaultConfig(), mediumRows(), Kernel{P: KernelParams{TPR: 16, LDSFactor: 8}})
}

// Ablation: device sensitivity — a 32-lane-wavefront device (NVIDIA-like)
// vs the default 64-lane GCN.
func wavefront32() hsa.Config {
	c := hsa.DefaultConfig()
	c.Name = "wavefront32"
	c.WavefrontSize = 32
	return c
}

func BenchmarkAblationWavefront64Serial(b *testing.B) {
	benchSim(b, hsa.DefaultConfig(), mediumRows(), serialKernel)
}
func BenchmarkAblationWavefront32Serial(b *testing.B) {
	benchSim(b, wavefront32(), mediumRows(), serialKernel)
}
func BenchmarkAblationWavefront64Sub16(b *testing.B) {
	benchSim(b, hsa.DefaultConfig(), mediumRows(), Kernel{P: KernelParams{TPR: 16}})
}
func BenchmarkAblationWavefront32Sub16(b *testing.B) {
	benchSim(b, wavefront32(), mediumRows(), Kernel{P: KernelParams{TPR: 16}})
}

// LDS factor correctness under ablation values.
func TestSubvectorFactorAblationCorrect(t *testing.T) {
	a := matgen.BlockFEM(200, 90, 30, 7)
	v := make([]float64, a.Cols)
	for i := range v {
		v[i] = float64(i%7) - 3
	}
	want := make([]float64, a.Rows)
	a.MulVec(v, want)
	for _, f := range []int{1, 2, 4, 8, 16} {
		u := make([]float64, a.Rows)
		run := hsa.NewRun(hsa.DefaultConfig())
		in := NewInput(run, a, v, u)
		Kernel{P: KernelParams{TPR: 16, LDSFactor: f}}.Run(run, in, binning.Single(a).Bins[0])
		if i := sparse.FirstVecDiff(want, u, 1e-9); i >= 0 {
			t.Errorf("factor %d: wrong at row %d", f, i)
		}
	}
}
