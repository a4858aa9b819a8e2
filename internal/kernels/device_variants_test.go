package kernels

import (
	"math/rand"
	"testing"

	"spmvtune/internal/binning"
	"spmvtune/internal/hsa"
	"spmvtune/internal/matgen"
	"spmvtune/internal/sparse"
)

// Kernels must stay correct on devices with different wavefront and
// work-group geometry (the clamping paths for X > work-group size and the
// tail wavefronts are easy to get wrong).
func TestKernelsOnVariantDevices(t *testing.T) {
	devices := []hsa.Config{
		hsa.SmallConfig(), // 32-lane wavefronts, 64-thread work-groups
		func() hsa.Config {
			c := hsa.DefaultConfig()
			c.WavefrontSize = 32
			c.Name = "wf32-wg256"
			return c
		}(),
		func() hsa.Config {
			c := hsa.DefaultConfig()
			c.NumCUs = 1
			c.Name = "single-cu"
			return c
		}(),
	}
	mats := []*sparse.CSR{
		matgen.Mixed(333, 333, 10, []int{1, 40, 3}, 7),
		matgen.BlockFEM(50, 300, 50, 8),
		matgen.RoadNetwork(500, 9),
	}
	for _, dev := range devices {
		for mi, a := range mats {
			rng := rand.New(rand.NewSource(55))
			v := make([]float64, a.Cols)
			for i := range v {
				v[i] = rng.NormFloat64()
			}
			want := make([]float64, a.Rows)
			a.MulVec(v, want)
			for _, info := range Pool() {
				u := make([]float64, a.Rows)
				run := hsa.NewRun(dev)
				in := NewInput(run, a, v, u)
				info.Kernel.Run(run, in, binning.Single(a).Bins[0])
				if i := sparse.FirstVecDiff(want, u, 1e-9); i >= 0 {
					t.Errorf("%s/%s/mat%d: wrong at row %d", dev.Name, info.Name, mi, i)
				}
				if st := run.Stats(); st.Seconds <= 0 {
					t.Errorf("%s/%s: no time accounted", dev.Name, info.Name)
				}
			}
		}
	}
}

// More compute units must never slow a kernel down (throughput scaling
// sanity of the CU round-robin).
func TestMoreCUsNeverSlower(t *testing.T) {
	a := matgen.Mixed(2048, 2048, 64, []int{3, 80}, 10)
	v := make([]float64, a.Cols)
	u := make([]float64, a.Rows)
	run := func(cus int) float64 {
		dev := hsa.DefaultConfig()
		dev.NumCUs = cus
		r := hsa.NewRun(dev)
		in := NewInput(r, a, v, u)
		Pool()[0].Kernel.Run(r, in, binning.Single(a).Bins[0])
		return r.Stats().Cycles
	}
	c1, c4, c16 := run(1), run(4), run(16)
	if c4 > c1 || c16 > c4 {
		t.Errorf("cycles not monotone in CU count: %v %v %v", c1, c4, c16)
	}
	if c4 >= c1*0.9 {
		t.Errorf("4 CUs barely faster than 1: %v vs %v", c4, c1)
	}
}
