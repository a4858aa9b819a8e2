package kernels

import (
	"runtime/debug"
	"testing"

	"spmvtune/internal/binning"
	"spmvtune/internal/hsa"
	"spmvtune/internal/matgen"
	"spmvtune/internal/sparse"
)

func launchAll(cfg hsa.Config, pool []Info, a *sparse.CSR, v, u []float64, groups []binning.Group) {
	for _, info := range pool {
		run := hsa.AcquireRun(cfg)
		in := AcquireInput(run, a, v, u)
		info.Kernel.Run(run, in, groups)
		_ = run.Stats()
		in.Release()
		run.Release()
	}
}

// TestKernelLaunchZeroAlloc asserts that once the Run/Input/scratch pools
// are warm, executing any kernel of the pool allocates nothing — the launch
// path the tuning search drives thousands of times per matrix.
func TestKernelLaunchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates inside sync.Pool operations")
	}
	cfg := hsa.DefaultConfig()
	a := matgen.RandomUniform(600, 400, 4, 24, 42)
	v := make([]float64, a.Cols)
	u := make([]float64, a.Rows)
	for i := range v {
		v[i] = 1
	}
	groups := binning.Single(a).Bins[0]
	pool := Pool()

	for i := 0; i < 3; i++ { // warm the pools
		launchAll(cfg, pool, a, v, u, groups)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(10, func() {
		launchAll(cfg, pool, a, v, u, groups)
	})
	if allocs != 0 {
		t.Fatalf("kernel-pool launch allocates %.1f times per run, want 0", allocs)
	}
}

func BenchmarkSerialLaunch(b *testing.B) {
	cfg := hsa.DefaultConfig()
	a := matgen.RandomUniform(2000, 1000, 4, 20, 7)
	v := make([]float64, a.Cols)
	u := make([]float64, a.Rows)
	groups := binning.Single(a).Bins[0]
	serial := Pool()[0].Kernel
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := hsa.AcquireRun(cfg)
		in := AcquireInput(run, a, v, u)
		serial.Run(run, in, groups)
		in.Release()
		run.Release()
	}
}
