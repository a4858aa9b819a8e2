package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"spmvtune/internal/binning"
	"spmvtune/internal/c50"
	"spmvtune/internal/kernels"
	"spmvtune/internal/matgen"
	"spmvtune/internal/plan"
	"spmvtune/internal/plancache"
)

// TestPoolSubspaceEquivalence is the PR's backward-compatibility anchor:
// -kernel-space=pool must be a true degenerate subspace — searching it
// reproduces the pre-synthesis search byte-identically (DeepEqual, not just
// label equality) at every worker count, with the cost layer on and off.
func TestPoolSubspaceEquivalence(t *testing.T) {
	for name, a := range equivCorpus() {
		t.Run(name, func(t *testing.T) {
			for _, workers := range []int{1, 2, 4} {
				for _, layered := range []bool{false, true} {
					mk := func(space string) Config {
						cfg := DefaultConfig()
						cfg.Workers = workers
						cfg.KernelSpace = space
						cfg.DisableSearchCache = !layered
						cfg.DisableSearchPrune = !layered
						if layered {
							cfg.SearchCache = plancache.NewCostCache(plancache.CostCacheOptions{})
						}
						return cfg
					}
					legacy := Search(mk(""), a)
					pool := Search(mk("pool"), a)
					if !reflect.DeepEqual(legacy, pool) {
						t.Fatalf("workers=%d layered=%v: pool space result differs from default space", workers, layered)
					}
				}
			}
		})
	}
}

// minPerU is the best achievable modeled time under a space: the minimum
// over granularities of the per-U sum (res.Seconds applies the canonical
// smallest-U tie-break on top, which is a labeling choice, not a cost).
func minPerU(res SearchResult) float64 {
	best := math.Inf(1)
	for _, ul := range res.PerU {
		if ul.Seconds < best {
			best = ul.Seconds
		}
	}
	return best
}

// TestSynthSpaceEquivalenceAndImprovement checks the two sides of the
// tentpole on the corpus: (a) the synthesized space's cached/pruned/
// bound-ordered search stays equivalent to its own exhaustive labeling at
// every worker count, and (b) the synthesized space never models slower
// than the pool (it is a superset) and wins strictly somewhere.
func TestSynthSpaceEquivalenceAndImprovement(t *testing.T) {
	sawWin := false
	for name, a := range equivCorpus() {
		t.Run(name, func(t *testing.T) {
			legacyCfg := DefaultConfig()
			legacyCfg.Workers = 1
			legacyCfg.KernelSpace = "synth"
			legacyCfg.DisableSearchCache = true
			legacyCfg.DisableSearchPrune = true
			legacy := Search(legacyCfg, a)

			if n := len(kernels.SynthSpace().Infos); n <= len(kernels.Pool()) {
				t.Fatalf("synth space has %d kernels, not a superset", n)
			}

			for _, workers := range []int{1, 3} {
				cfg := DefaultConfig()
				cfg.Workers = workers
				cfg.KernelSpace = "synth"
				cfg.SearchCache = plancache.NewCostCache(plancache.CostCacheOptions{})
				tuned := Search(cfg, a)
				if err := CheckSearchEquivalence(legacy, tuned); err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
			}

			poolCfg := DefaultConfig()
			poolCfg.Workers = 1
			poolCfg.DisableSearchCache = true
			poolCfg.DisableSearchPrune = true
			pool := Search(poolCfg, a)
			sMin, pMin := minPerU(legacy), minPerU(pool)
			if sMin > pMin {
				t.Fatalf("synth space models slower than its pool subset: %v > %v", sMin, pMin)
			}
			if sMin < pMin {
				sawWin = true
			}
		})
	}
	if !sawWin {
		t.Error("synthesized space never beat the pool on the corpus (search is vacuous)")
	}
}

// TestCostKeySpaceSeparation is the adversarial near-collision test: two
// spaces that differ in a single kernel's LDS tiling must never share a
// cost-cache cell key, or a cached KernelTimes vector from one space would
// replay as the other's.
func TestCostKeySpaceSeparation(t *testing.T) {
	base := []kernels.KernelParams{
		{TPR: 1, Reduction: kernels.ReduceTree},
		{TPR: 32, LDSFactor: 4, Reduction: kernels.ReduceTree},
	}
	twin := []kernels.KernelParams{
		{TPR: 1, Reduction: kernels.ReduceTree},
		{TPR: 32, LDSFactor: 8, Reduction: kernels.ReduceTree}, // only diff
	}
	spA := kernels.NewSpace("a", base)
	spB := kernels.NewSpace("a", twin) // same name, same size: only params differ
	if spA.Fingerprint() == spB.Fingerprint() {
		t.Fatal("space fingerprints collide across an LDS-tiling change")
	}

	a := matgen.RandomUniform(300, 200, 2, 16, 3)
	cfg := DefaultConfig()
	mkLayer := func(sp *kernels.Space) *costLayer {
		cl := newCostLayer(cfg, cfg.Device, a, sp)
		if cl == nil {
			t.Fatal("cost layer disabled under defaults")
		}
		return cl
	}
	b := binning.Coarse(a, cfg.Us[0], cfg.MaxBins)
	checked := 0
	for _, binID := range b.NonEmpty() {
		keyA, _ := mkLayer(spA).cell(b.Bins[binID])
		keyB, _ := mkLayer(spB).cell(b.Bins[binID])
		if keyA == keyB {
			t.Fatalf("bin %d: cell keys collide across spaces differing in one LDSFactor", binID)
		}
		// Same space twice must still agree (the key is deterministic).
		if again, _ := mkLayer(spA).cell(b.Bins[binID]); again != keyA {
			t.Fatalf("bin %d: cell key not deterministic", binID)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no non-empty bins (test is vacuous)")
	}
}

// TestSynthModelTrainsPredictsAndPlans drives the synthesized space through
// the whole stack: training labels carry synth classes, the stage-2
// predictor is a learned quantization of the parameter space, and the plans
// it emits are version-2 artifacts that validate, round-trip, and execute.
func TestSynthModelTrainsPredictsAndPlans(t *testing.T) {
	cfg := DefaultConfig()
	cfg.KernelSpace = "synth"
	td := NewTrainingData(cfg)
	for _, a := range equivCorpus() {
		td.AddMatrix(cfg, a)
	}
	m := TrainModel(td, cfg, c50.DefaultOptions())
	if m.Space != "synth" {
		t.Fatalf("model space %q, want synth", m.Space)
	}

	a := matgen.PowerLaw(700, 5, 1.9, 150, 11)
	vec := cfg.FeatureVector(a)
	u := m.PredictUVec(vec)
	kid := m.PredictKernelVec(vec, u, 1, 200, 8)
	params, _ := m.KernelSpace().ParamsByID(kid)
	if err := params.Validate(); err != nil {
		t.Fatalf("predicted params invalid: %v", err)
	}
	if want, ok := kernels.SynthSpace().ParamsByID(kid); !ok || params != want {
		t.Fatalf("predicted params %+v do not match space coordinates of kernel %d", params, kid)
	}

	fw := NewFramework(cfg, m)
	p, err := fw.Plan(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if p.Version != plan.FormatVersion || p.Space != "synth" {
		t.Fatalf("synth model emitted plan Version=%d Space=%q", p.Version, p.Space)
	}
	for _, ba := range p.Bins {
		if ba.Params == nil {
			t.Fatalf("bin %d missing params", ba.Bin)
		}
	}
	blob, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := plan.Decode(blob)
	if err != nil {
		t.Fatalf("v2 plan does not round-trip: %v", err)
	}
	v := make([]float64, a.Cols)
	for i := range v {
		v[i] = 1
	}
	out := make([]float64, a.Rows)
	rep, err := fw.ExecutePlanOpts(context.Background(), back, a, v, out, DefaultGuardOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.DecisionFallback {
		t.Fatal("v2 plan degraded to fallback on its own matrix")
	}
}
