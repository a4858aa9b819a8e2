package core

import (
	"context"
	"reflect"
	"runtime/debug"
	"testing"

	"spmvtune/internal/binning"
	"spmvtune/internal/hsa"
	"spmvtune/internal/kernels"
	"spmvtune/internal/matgen"
	"spmvtune/internal/plancache"
	"spmvtune/internal/sparse"
)

func batchTestVectors(a *sparse.CSR, nb int, seed int64) ([][]float64, [][]float64, [][]float64) {
	vs := make([][]float64, nb)
	us := make([][]float64, nb)
	wants := make([][]float64, nb)
	for b := range vs {
		vs[b] = randVec(a.Cols, seed+int64(b))
		us[b] = make([]float64, a.Rows)
		wants[b] = make([]float64, a.Rows)
		a.MulVec(vs[b], wants[b])
	}
	return vs, us, wants
}

// The guarded batch property: ExecutePlanBatchOpts over B vectors must produce
// byte-identical outputs to B sequential ExecutePlan calls — across batch
// widths, on a clean run with no degradation.
func TestExecutePlanBatchByteIdenticalToSequential(t *testing.T) {
	fw := guardFramework(t)
	mats := []*sparse.CSR{
		matgen.Mixed(400, 400, 20, []int{2, 60}, 7),
		matgen.PowerLaw(350, 4, 1.7, 160, 3),
	}
	for mi, a := range mats {
		p, err := fw.Plan(context.Background(), a)
		if err != nil {
			t.Fatal(err)
		}
		bfw := NewFramework(fw.Cfg, fw.Model())
		for _, nb := range []int{1, 2, 3, 8} {
			vs, us, _ := batchTestVectors(a, nb, int64(mi*100+nb))

			seq := make([][]float64, nb)
			for b := 0; b < nb; b++ {
				seq[b] = make([]float64, a.Rows)
				if _, err := bfw.ExecutePlanOpts(context.Background(), p, a, vs[b], seq[b], DefaultGuardOptions()); err != nil {
					t.Fatalf("mat %d nb=%d: sequential: %v", mi, nb, err)
				}
			}

			rep, err := bfw.ExecutePlanBatchOpts(context.Background(), p, a, vs, us, DefaultGuardOptions())
			if err != nil {
				t.Fatalf("mat %d nb=%d: batch: %v", mi, nb, err)
			}
			if rep.Vectors != nb || rep.Isolated != 0 {
				t.Errorf("mat %d nb=%d: report vectors=%d isolated=%d", mi, nb, rep.Vectors, rep.Isolated)
			}
			for b := 0; b < nb; b++ {
				if rep.VectorDegraded(b) {
					t.Errorf("mat %d nb=%d: clean batch reports vector %d degraded", mi, nb, b)
				}
				for i := range seq[b] {
					if us[b][i] != seq[b][i] {
						t.Fatalf("mat %d nb=%d: vector %d differs at row %d: got %v want %v",
							mi, nb, b, i, us[b][i], seq[b][i])
					}
				}
			}
			if nb > 1 {
				for _, pr := range rep.Shared.Profiles {
					if pr.Vectors != nb {
						t.Errorf("mat %d nb=%d: profile Vectors=%d", mi, nb, pr.Vectors)
					}
				}
			}
		}
	}
}

// A persistent NaN-poison fault on one bin corrupts exactly one vector of
// the fused launch; that vector alone must be isolated and re-served (down
// to the CPU reference), while the other requests keep their clean fused
// result and report no degradation.
func TestExecutePlanBatchIsolatesFaultedVector(t *testing.T) {
	fw := guardFramework(t)
	a := matgen.Mixed(500, 500, 25, []int{2, 60}, 7)
	p, err := fw.Plan(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Bins) == 0 {
		t.Fatal("plan has no bins")
	}
	binID := p.Bins[0].Bin
	const nb = 4
	poisoned := binID % nb

	vs, us, wants := batchTestVectors(a, nb, 41)
	opt := DefaultGuardOptions()
	opt.Faults = hsa.NewFaultPlan().AddBinFault(binID, hsa.Fault{Class: hsa.FaultNaNPoison})

	rep, err := fw.ExecutePlanBatchOpts(context.Background(), p, a, vs, us, opt)
	if err != nil {
		t.Fatalf("batch run: %v", err)
	}
	for b := 0; b < nb; b++ {
		if i := sparse.FirstVecDiff(wants[b], us[b], 1e-9); i >= 0 {
			t.Errorf("vector %d wrong at row %d", b, i)
		}
	}
	if rep.Isolated != 1 {
		t.Errorf("Isolated = %d, want 1", rep.Isolated)
	}
	if !rep.VectorDegraded(poisoned) {
		t.Errorf("poisoned vector %d not reported degraded", poisoned)
	}
	for b := 0; b < nb; b++ {
		if b == poisoned {
			if rep.PerVector[b] == nil {
				t.Fatalf("poisoned vector %d has no isolation report", b)
			}
			continue
		}
		if rep.VectorDegraded(b) {
			t.Errorf("unfaulted vector %d reported degraded", b)
		}
		if rep.PerVector[b] != nil {
			t.Errorf("unfaulted vector %d was isolated", b)
		}
	}
	if rep.Shared.Degraded() {
		t.Errorf("shared fused path degraded, which would taint the whole batch: %v", rep.Shared)
	}
	// The isolated vector's single-vector chain re-arms the same persistent
	// fault, so it must have degraded past the predicted kernel.
	if pv := rep.PerVector[poisoned]; pv != nil && !pv.Degraded() {
		t.Errorf("isolation report for vector %d is clean; want retries/fallbacks", poisoned)
	}
}

// Steady-state launches must allocate nothing at any width: runs, inputs and
// kernel scratch all come from pools — the device-side half of the zero-alloc
// discipline.
func TestBatchLaunchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates inside sync.Pool operations")
	}
	dev := hsa.DefaultConfig()
	a := matgen.Mixed(300, 300, 12, []int{2, 40}, 5)
	groups := binning.Single(a).Bins[0]
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, nb := range []int{1, 8} {
		vs, us, _ := batchTestVectors(a, nb, 23)
		for _, info := range kernels.Pool() {
			k := info.Kernel
			for i := 0; i < 3; i++ { // warm the pools
				launchKernel(context.Background(), dev, a, vs, us, k, kernels.Kernel.Run, groups, nil, false, 0)
			}
			if n := testing.AllocsPerRun(10, func() {
				launchKernel(context.Background(), dev, a, vs, us, k, kernels.Kernel.Run, groups, nil, false, 0)
			}); n != 0 {
				t.Errorf("%s B=%d: launch allocates %v/op in steady state, want 0", info.Name, nb, n)
			}
		}
	}
}

// A batched search must not disturb the single-vector cost-cache entries
// (the cell keys carry the width), its labels must be reproducible against
// an unpruned/uncached batched search, and its modeled time must show the
// amortization: more than one vector's worth of work, less than B times it.
func TestSearchBatchedWidth(t *testing.T) {
	a := matgen.Mixed(350, 350, 15, []int{2, 50}, 9)
	cache := plancache.NewCostCache(plancache.CostCacheOptions{})

	cfg1 := testConfig()
	cfg1.SearchCache = cache
	res1 := Search(cfg1, a)

	cfgB := cfg1
	cfgB.Vectors = 8
	resB := Search(cfgB, a)

	// Replaying the single-vector search from the shared cache must return
	// the identical result — batched cells keyed apart from B=1 cells.
	res1b := Search(cfg1, a)
	if !reflect.DeepEqual(res1, res1b) {
		t.Error("single-vector search result changed after a batched search shared its cache")
	}

	// Batched labels are reproducible without cache or pruning.
	cfgLegacy := cfgB
	cfgLegacy.SearchCache = nil
	cfgLegacy.DisableSearchCache = true
	cfgLegacy.DisableSearchPrune = true
	legacy := Search(cfgLegacy, a)
	if err := CheckSearchEquivalence(legacy, resB); err != nil {
		t.Errorf("batched search not equivalent to legacy batched search: %v", err)
	}

	if resB.Seconds <= res1.Seconds {
		t.Errorf("batched (B=8) modeled time %v not above single-vector %v", resB.Seconds, res1.Seconds)
	}
	if resB.Seconds >= 8*res1.Seconds {
		t.Errorf("batched (B=8) modeled time %v shows no amortization vs 8 x %v", resB.Seconds, res1.Seconds)
	}
}

// BenchmarkExecuteWarm times a warm guarded execution — plan in hand, every
// launch replayed from the memo — on the serving benchmark's matrices:
// solve_iterate's Poisson grid and spmv_exec's BlockFEM one vector at a
// time, spmv_fused's Mixed eight at a time.
func BenchmarkExecuteWarm(b *testing.B) {
	fw := guardFramework(b)
	for _, tc := range []struct {
		name string
		a    *sparse.CSR
		nb   int
	}{
		{"poisson120/B=1", matgen.Poisson2D(120), 1},
		{"blockfem/B=1", matgen.BlockFEM(2000, 200, 30, 1), 1},
		{"mixed/B=8", matgen.Mixed(4000, 4000, 2000, []int{4, 28}, 1), 8},
	} {
		b.Run(tc.name, func(b *testing.B) {
			ctx := context.Background()
			p, err := fw.Plan(ctx, tc.a)
			if err != nil {
				b.Fatal(err)
			}
			vs, us, _ := batchTestVectors(tc.a, tc.nb, 1)
			opt := DefaultGuardOptions()
			if _, err := fw.ExecutePlanBatchOpts(ctx, p, tc.a, vs, us, opt); err != nil { // fills the replay memo
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fw.ExecutePlanBatchOpts(ctx, p, tc.a, vs, us, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
