package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"spmvtune/internal/binning"
	"spmvtune/internal/hsa"
	"spmvtune/internal/kernels"
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

// TestPruneOffSearchIgnoresCachedBounds fills a private cost cache with a
// pruning search, whose entries hold lower bounds for pruned and cut-short
// kernels, then searches the same matrix with pruning off on that cache:
// every KernelTimes entry must be a full simulated time, so the result must
// equal the legacy path's exactly.
func TestPruneOffSearchIgnoresCachedBounds(t *testing.T) {
	for name, a := range equivCorpus() {
		t.Run(name, func(t *testing.T) {
			legacyCfg := DefaultConfig()
			legacyCfg.DisableSearchCache = true
			legacyCfg.DisableSearchPrune = true
			legacy := Search(legacyCfg, a)

			cfg := DefaultConfig()
			cfg.SearchCache = plancache.NewCostCache(plancache.CostCacheOptions{})
			if err := CheckSearchEquivalence(legacy, Search(cfg, a)); err != nil {
				t.Fatalf("pruning search: %v", err)
			}
			cfg.DisableSearchPrune = true
			if got := Search(cfg, a); !reflect.DeepEqual(legacy, got) {
				t.Fatal("prune-off search on a pruning search's cache differs from legacy")
			}
		})
	}
}

// TestLaunchCutoffSound holds the search's in-launch cutoff to its
// contract on every pool and synthesized point over the cells the search
// labels on equivCorpus, on two devices at widths 1 and 8: a stopped launch
// reports Seconds above its cutoff and at most the uncut launch's, a launch
// that is not stopped charges exactly the uncut launch's Stats, and a zero
// cutoff is no cutoff at all, counters included.
func TestLaunchCutoffSound(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine and deterministic: the race detector finds nothing here")
	}
	type launch struct {
		st      hsa.Stats
		ctr     hsa.Counters
		stopped bool
	}
	// account launches k over groups, arming the cutoff when arm is set.
	account := func(dev hsa.Config, k kernels.Kernel, a *sparse.CSR, vs, us [][]float64, groups []binning.Group, arm bool, cutoff float64) launch {
		run := hsa.AcquireRun(dev)
		defer run.Release()
		run.EnableCounters()
		if arm {
			run.SetCutoff(cutoff)
		}
		in := kernels.AcquireBatchInput(run, a, vs, us)
		defer in.Release()
		k.Account(run, in, groups)
		ctr, _ := run.Counters()
		return launch{run.Stats(), ctr, run.Stopped()}
	}
	for name, a := range equivCorpus() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			stops := 0
			// The search's cells, one per cost key: cells covering the same rows
			// launch the same work-groups.
			var cells [][]binning.Group
			seen := map[plancache.CostKey]bool{}
			cl := newCostLayer(DefaultConfig(), hsa.DefaultConfig(), a, kernels.SynthSpace())
			for _, u := range binning.Granularities() {
				b := binning.Coarse(a, u, binning.DefaultMaxBins)
				for _, id := range b.NonEmpty() {
					if k, _ := cl.cell(b.Bins[id]); !seen[k] {
						seen[k] = true
						cells = append(cells, b.Bins[id])
					}
				}
			}
			for di, dev := range []hsa.Config{hsa.DefaultConfig(), hsa.SmallConfig()} {
				for _, nb := range []int{1, 8} {
					vs, us := make([][]float64, nb), make([][]float64, nb)
					for i := range vs {
						vs[i], us[i] = make([]float64, a.Cols), make([]float64, a.Rows)
					}
					for ci, groups := range cells {
						for _, info := range kernels.SynthSpace().Infos {
							none := account(dev, info.Kernel, a, vs, us, groups, false, 0)
							where := fmt.Sprintf("device %d cell %d B=%d %s", di, ci, nb, info.Name)
							if zero := account(dev, info.Kernel, a, vs, us, groups, true, 0); zero != none {
								t.Fatalf("%s: cutoff 0 differs from no cutoff", where)
							}
							for _, f := range []float64{0.5, 0.9, 1.0, 1.1} {
								cutoff := f * none.st.Seconds
								got := account(dev, info.Kernel, a, vs, us, groups, true, cutoff)
								switch {
								case got.stopped && !(got.st.Seconds > cutoff && got.st.Seconds <= none.st.Seconds):
									t.Fatalf("%s cutoff %gx: stopped at %v s, want in (%v, %v]", where, f, got.st.Seconds, cutoff, none.st.Seconds)
								case !got.stopped && got.st != none.st:
									t.Fatalf("%s cutoff %gx: launch not stopped but stats %+v, uncut %+v", where, f, got.st, none.st)
								}
								if got.stopped {
									stops++
								}
							}
						}
					}
				}
			}
			if stops == 0 {
				t.Fatal("no launch stopped (test is vacuous)")
			}
		})
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

// BenchmarkBootstrapLabel is BenchmarkBootstrapSearch through the batch
// path spmvd's bootstrap takes: one AddMatrices call labels the whole
// corpus on one search pool.
func BenchmarkBootstrapLabel(b *testing.B) {
	mats := matgen.Matrices(matgen.Corpus(matgen.CorpusOptions{N: 24, MinRows: 256, MaxRows: 2048, Seed: 42}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		cfg.SearchCache = plancache.NewCostCache(plancache.CostCacheOptions{})
		NewTrainingData(cfg).AddMatrices(cfg, mats)
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
