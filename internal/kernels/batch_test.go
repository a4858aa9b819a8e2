package kernels

import (
	"math/rand"
	"testing"

	"spmvtune/internal/hsa"
	"spmvtune/internal/matgen"
	"spmvtune/internal/sparse"
)

// batchKernelsUnderTest covers every walker family: the full pool plus
// synthesized points exercising the serial geometry, the sequential
// reduction, and the wavefront-synchronous combine.
func batchKernelsUnderTest() []Info {
	infos := append([]Info{}, Pool()...)
	for _, p := range []KernelParams{
		{TPR: 1, RowsPerWG: 64},
		{TPR: 8, RowsPerWG: 16, LDSFactor: 2, Reduction: ReduceSequential},
		{TPR: 16, Reduction: ReduceWavefront},
		{TPR: 64, Reduction: ReduceWavefront},
	} {
		infos = append(infos, Info{ID: -1, Name: p.Name(), Kernel: Kernel{P: p}})
	}
	return infos
}

func batchVectors(a *sparse.CSR, nb int, seed int64) ([][]float64, [][]float64) {
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

// A fused launch over B vectors must produce byte-identical outputs to B
// independent single-vector launches, for every walker family.
func TestRunBatchByteIdenticalToIndependentRuns(t *testing.T) {
	mats := map[string]*sparse.CSR{
		"figure1":  sparse.Figure1(),
		"banded":   matgen.Banded(300, 7, 1),
		"powerlaw": matgen.PowerLaw(250, 4, 1.8, 120, 3),
		"mixed":    matgen.Mixed(200, 200, 10, []int{1, 40, 3}, 7),
	}
	for name, a := range mats {
		groups := allRows(a)
		for _, nb := range []int{1, 2, 3, 8} {
			vs, us := batchVectors(a, nb, 7)
			for _, info := range batchKernelsUnderTest() {
				// Independent single-vector launches.
				want := make([][]float64, nb)
				for b := 0; b < nb; b++ {
					want[b] = make([]float64, a.Rows)
					run := hsa.NewRun(hsa.DefaultConfig())
					in := NewInput(run, a, vs[b], want[b])
					info.Kernel.Run(run, in, groups)
				}
				// One fused launch.
				for b := range us {
					clear(us[b])
				}
				run := hsa.NewRun(hsa.DefaultConfig())
				in := NewBatchInput(run, a, vs, us)
				info.Kernel.Run(run, in, groups)
				for b := 0; b < nb; b++ {
					for i := range want[b] {
						if us[b][i] != want[b][i] {
							t.Fatalf("%s/%s B=%d: vector %d differs at row %d: got %v want %v",
								name, info.Name, nb, b, i, us[b][i], want[b][i])
						}
					}
				}
			}
		}
	}
}

// The fused launch must amortize matrix traffic: at B vectors the batch
// makespan must undercut B sequential single-vector launches, and the DRAM
// bytes for the structure must be charged once (batch DRAM traffic stays
// below B times the single launch's).
func TestRunBatchAmortizesStructureTraffic(t *testing.T) {
	a := matgen.Mixed(400, 400, 12, []int{2, 50, 5}, 3)
	groups := allRows(a)
	const nb = 8
	vs, us := batchVectors(a, nb, 11)
	for _, info := range batchKernelsUnderTest() {
		var seq hsa.Stats
		for b := 0; b < nb; b++ {
			run := hsa.NewRun(hsa.DefaultConfig())
			in := NewInput(run, a, vs[b], us[b])
			info.Kernel.Run(run, in, groups)
			seq.Add(run.Stats())
		}

		run := hsa.NewRun(hsa.DefaultConfig())
		in := NewBatchInput(run, a, vs, us)
		info.Kernel.Run(run, in, groups)
		batch := run.Stats()

		if batch.Vectors != nb {
			t.Errorf("%s: batch stats Vectors = %d, want %d", info.Name, batch.Vectors, nb)
		}
		if batch.ExecCycles >= seq.ExecCycles {
			t.Errorf("%s: batch makespan %.0f not below %d sequential launches %.0f",
				info.Name, batch.ExecCycles, nb, seq.ExecCycles)
		}
		if batch.DRAMBytes >= seq.DRAMBytes {
			t.Errorf("%s: batch DRAM %dB not below sequential %dB",
				info.Name, batch.DRAMBytes, seq.DRAMBytes)
		}
	}
}

// PipeFloor soundness at every width: the simulated makespan (excluding
// launch overhead) must never undercut the certified floor, and a width
// below 1 must count as 1.
func TestBatchPipeFloorSound(t *testing.T) {
	cfg := hsa.DefaultConfig()
	mats := []*sparse.CSR{
		sparse.Figure1(),
		matgen.PowerLaw(200, 3, 1.7, 90, 9),
		matgen.Mixed(150, 150, 8, []int{1, 30}, 13),
	}
	for _, a := range mats {
		maxLen := 0
		for r := 0; r < a.Rows; r++ {
			if l := a.RowLen(r); l > maxLen {
				maxLen = l
			}
		}
		groups := allRows(a)
		for _, nb := range []int{1, 2, 4, 8} {
			vs, us := batchVectors(a, nb, 17)
			for _, info := range batchKernelsUnderTest() {
				if got, want := info.Kernel.PipeFloor(cfg, maxLen, 0), info.Kernel.PipeFloor(cfg, maxLen, 1); got != want {
					t.Errorf("%s: PipeFloor(vectors=0)=%v != PipeFloor(vectors=1) %v", info.Name, got, want)
				}
				floor := info.Kernel.PipeFloor(cfg, maxLen, nb)
				run := hsa.NewRun(cfg)
				in := NewBatchInput(run, a, vs, us)
				info.Kernel.Run(run, in, groups)
				if st := run.Stats(); st.ExecCycles < floor {
					t.Errorf("%s B=%d: makespan %.1f undercuts certified floor %.1f",
						info.Name, nb, st.ExecCycles, floor)
				}
			}
		}
	}
}
