package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"spmvtune/internal/matgen"
	"spmvtune/internal/plancache"
	"spmvtune/internal/sparse"
)

func equivCorpus() map[string]*sparse.CSR {
	return map[string]*sparse.CSR{
		"uniform":  matgen.RandomUniform(600, 400, 2, 20, 1),
		"powerlaw": matgen.PowerLaw(800, 6, 2.0, 200, 2),
		"diagonal": matgen.Diagonal(300, 3),
		"mixed":    matgen.Mixed(600, 400, 150, []int{2, 30, 4, 120}, 4),
	}
}

// TestSearchCachePruneEquivalence is the PR-5 property test: the search
// with the bin-signature cost cache and the lower-bound pruner — in every
// combination, at every worker count — must produce labels byte-identical
// to the legacy exhaustive path. Cache-only runs must match the legacy
// result exactly (DeepEqual: every KernelTimes entry is a replayed
// simulation); pruning runs must pass CheckSearchEquivalence, which also
// certifies every recorded lower bound against the legacy simulated time.
func TestSearchCachePruneEquivalence(t *testing.T) {
	for name, a := range equivCorpus() {
		t.Run(name, func(t *testing.T) {
			legacyCfg := DefaultConfig()
			legacyCfg.Workers = 1
			legacyCfg.DisableSearchCache = true
			legacyCfg.DisableSearchPrune = true
			legacy := Search(legacyCfg, a)

			sawPrune := false
			for _, workers := range []int{1, 3} {
				for _, mode := range []struct {
					name         string
					cache, prune bool
				}{
					{"cache-only", true, false},
					{"prune-only", false, true},
					{"cache+prune", true, true},
				} {
					cfg := DefaultConfig()
					cfg.Workers = workers
					cfg.DisableSearchCache = !mode.cache
					cfg.DisableSearchPrune = !mode.prune
					var cc *plancache.CostCache
					if mode.cache {
						// A fresh private cache per variant keeps runs independent.
						cc = plancache.NewCostCache(plancache.CostCacheOptions{})
						cfg.SearchCache = cc
					}
					tuned := Search(cfg, a)
					if err := CheckSearchEquivalence(legacy, tuned); err != nil {
						t.Fatalf("workers=%d %s: %v", workers, mode.name, err)
					}
					if !mode.prune && !reflect.DeepEqual(legacy, tuned) {
						t.Fatalf("workers=%d %s: result not byte-identical to legacy", workers, mode.name)
					}
					for _, ul := range tuned.PerU {
						for _, bl := range ul.Bins {
							for _, p := range bl.Pruned {
								if p {
									sawPrune = true
								}
							}
						}
					}
					if mode.cache {
						st := cc.Stats()
						if st.Hits == 0 {
							t.Errorf("workers=%d %s: cost cache never hit (%+v)", workers, mode.name, st)
						}
						// A second search of the same matrix must replay every
						// cell from the now-warm cache and still match.
						again := Search(cfg, a)
						if err := CheckSearchEquivalence(legacy, again); err != nil {
							t.Fatalf("workers=%d %s warm rerun: %v", workers, mode.name, err)
						}
						warm := cc.Stats()
						if warm.Misses != st.Misses {
							t.Errorf("workers=%d %s: warm rerun missed %d cells", workers, mode.name, warm.Misses-st.Misses)
						}
					}
				}
			}
			if !sawPrune {
				t.Error("lower-bound pruner never fired on this matrix (test is vacuous)")
			}
		})
	}
}

// TestSearchDefaultsMatchLegacy pins the production default (shared cache +
// pruning, no explicit knobs) to the legacy labels as well.
func TestSearchDefaultsMatchLegacy(t *testing.T) {
	a := matgen.RandomUniform(500, 300, 2, 24, 7)
	legacyCfg := DefaultConfig()
	legacyCfg.DisableSearchCache = true
	legacyCfg.DisableSearchPrune = true
	legacy := Search(legacyCfg, a)
	tuned := Search(DefaultConfig(), a)
	if err := CheckSearchEquivalence(legacy, tuned); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSearchResultKernelFor(b *testing.B) {
	res := Search(DefaultConfig(), matgen.RandomUniform(400, 300, 2, 16, 5))
	bins := res.BestBins()
	if len(bins) == 0 {
		b.Fatal("no bins")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := res.KernelFor(bins[i%len(bins)].BinID); !ok {
			b.Fatal("missing bin")
		}
	}
}

func BenchmarkSearchResultKernelByBin(b *testing.B) {
	res := Search(DefaultConfig(), matgen.RandomUniform(400, 300, 2, 16, 5))
	bins := res.BestBins()
	if len(bins) == 0 {
		b.Fatal("no bins")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := res.KernelByBin()
		if _, ok := m[bins[i%len(bins)].BinID]; !ok {
			b.Fatal("missing bin")
		}
	}
}

// BenchmarkBootstrapSearch is the labelling half of spmvd's start-up on the
// corpus cmd/spmvd bootstraps from when no -model is given (and therefore
// what bench/'s setup_s mostly is). Each iteration starts from a cold cost
// cache, as a fresh daemon does.
func BenchmarkBootstrapSearch(b *testing.B) {
	mats := matgen.Corpus(matgen.CorpusOptions{N: 24, MinRows: 256, MaxRows: 2048, Seed: 42})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		cfg.SearchCache = plancache.NewCostCache(plancache.CostCacheOptions{})
		for _, cm := range mats {
			Search(cfg, cm.A)
		}
	}
}

// CheckSearchEquivalence verifies that a cached/pruned search result carries
// exactly the labels of a legacy exhaustive result on the same (config,
// matrix): every decision field must match bit-for-bit, and every
// KernelTimes entry must match except where tuned pruned the kernel — there
// the recorded lower bound must be sound (<= the legacy simulated time) and
// label-irrelevant (above the bin's tie window). It returns nil when the
// two results are equivalent.
func CheckSearchEquivalence(legacy, tuned SearchResult) error {
	if legacy.BestU != tuned.BestU {
		return fmt.Errorf("BestU: legacy %d, tuned %d", legacy.BestU, tuned.BestU)
	}
	if legacy.Seconds != tuned.Seconds {
		return fmt.Errorf("Seconds: legacy %v, tuned %v", legacy.Seconds, tuned.Seconds)
	}
	if len(legacy.PerU) != len(tuned.PerU) {
		return fmt.Errorf("PerU length: legacy %d, tuned %d", len(legacy.PerU), len(tuned.PerU))
	}
	for ui := range legacy.PerU {
		lu, tu := legacy.PerU[ui], tuned.PerU[ui]
		if lu.U != tu.U || lu.Seconds != tu.Seconds {
			return fmt.Errorf("U=%d: (U, Seconds) legacy (%d, %v), tuned (%d, %v)", lu.U, lu.U, lu.Seconds, tu.U, tu.Seconds)
		}
		if len(lu.Bins) != len(tu.Bins) {
			return fmt.Errorf("U=%d: bin count legacy %d, tuned %d", lu.U, len(lu.Bins), len(tu.Bins))
		}
		for bi := range lu.Bins {
			lb, tb := lu.Bins[bi], tu.Bins[bi]
			if lb.BinID != tb.BinID || lb.Rows != tb.Rows || lb.AvgLen != tb.AvgLen ||
				lb.KernelID != tb.KernelID || lb.Seconds != tb.Seconds {
				return fmt.Errorf("U=%d bin %d: label mismatch legacy %+v, tuned %+v", lu.U, lb.BinID, lb, tb)
			}
			if len(lb.KernelTimes) != len(tb.KernelTimes) {
				return fmt.Errorf("U=%d bin %d: KernelTimes length legacy %d, tuned %d", lu.U, lb.BinID, len(lb.KernelTimes), len(tb.KernelTimes))
			}
			best := math.Inf(1)
			for _, s := range tb.KernelTimes {
				if s < best {
					best = s
				}
			}
			for kid := range lb.KernelTimes {
				pruned := kid < len(tb.Pruned) && tb.Pruned[kid]
				switch {
				case !pruned && lb.KernelTimes[kid] != tb.KernelTimes[kid]:
					return fmt.Errorf("U=%d bin %d kernel %d: time legacy %v, tuned %v", lu.U, lb.BinID, kid, lb.KernelTimes[kid], tb.KernelTimes[kid])
				case pruned && tb.KernelTimes[kid] > lb.KernelTimes[kid]:
					return fmt.Errorf("U=%d bin %d kernel %d: unsound lower bound %v > simulated %v", lu.U, lb.BinID, kid, tb.KernelTimes[kid], lb.KernelTimes[kid])
				case pruned && tb.KernelTimes[kid] <= best*(1+tieEpsilon):
					return fmt.Errorf("U=%d bin %d kernel %d: pruned bound %v inside tie window of %v", lu.U, lb.BinID, kid, tb.KernelTimes[kid], best)
				}
			}
		}
	}
	return nil
}
