package kernels

import (
	"math"
	"math/rand"
	"testing"

	"spmvtune/internal/binning"
	"spmvtune/internal/hsa"
	"spmvtune/internal/matgen"
	"spmvtune/internal/sparse"
)

// TestAccountMatchesRun holds the accounting-only launch the tuning search
// runs to the full one: for every point of the synthesized space (the pool
// included) at widths 1, 3 and 8, Account charges exactly the Stats and
// Counters Run does, and writes no output row.
func TestAccountMatchesRun(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine and deterministic: the race detector finds nothing here")
	}
	mats := []*sparse.CSR{
		sparse.Figure1(),
		matgen.PowerLaw(1250, 4, 1.8, 700, 3),
		matgen.Mixed(777, 777, 10, []int{1, 40, 3, 300}, 7),
	}
	seg48 := hsa.DefaultConfig()
	seg48.SegmentBytes = 48
	wf16 := hsa.SmallConfig()
	wf16.WavefrontSize = 16
	devs := []hsa.Config{hsa.DefaultConfig(), hsa.SmallConfig(), seg48, wf16}
	for mi, a := range mats {
		groups := binning.Single(a).Bins[0]
		for _, nb := range []int{1, 3, 8} {
			rng := rand.New(rand.NewSource(int64(7 + nb)))
			vs := make([][]float64, nb)
			us := make([][]float64, nb)
			for b := range vs {
				vs[b] = make([]float64, a.Cols)
				for i := range vs[b] {
					vs[b][i] = rng.NormFloat64()
				}
				us[b] = make([]float64, a.Rows)
			}
			for di, dev := range devs {
				for _, info := range SynthSpace().Infos {
					full := hsa.NewRun(dev)
					full.EnableCounters()
					info.Kernel.Run(full, NewBatchInput(full, a, vs, us), groups)
					wantCtr, _ := full.Counters()

					for b := range us {
						for i := range us[b] {
							us[b][i] = math.NaN()
						}
					}
					acct := hsa.NewRun(dev)
					acct.EnableCounters()
					info.Kernel.Account(acct, NewBatchInput(acct, a, vs, us), groups)
					gotCtr, _ := acct.Counters()

					if got, want := acct.Stats(), full.Stats(); got != want {
						t.Fatalf("matrix %d, B=%d, device %d, %s: Account stats %+v, Run %+v", mi, nb, di, info.Name, got, want)
					}
					if gotCtr != wantCtr {
						t.Fatalf("matrix %d, B=%d, device %d, %s: Account counters %+v, Run %+v", mi, nb, di, info.Name, gotCtr, wantCtr)
					}
					for b := range us {
						for r, x := range us[b] {
							if !math.IsNaN(x) {
								t.Fatalf("matrix %d, B=%d, device %d, %s: Account wrote u[%d][%d] = %v", mi, nb, di, info.Name, b, r, x)
							}
						}
					}
				}
			}
		}
	}
}
