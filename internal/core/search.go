package core

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"spmvtune/internal/binning"
	"spmvtune/internal/errdefs"
	"spmvtune/internal/formats"
	"spmvtune/internal/kernels"
	"spmvtune/internal/plancache"
	"spmvtune/internal/sparse"
)

// BinLabel records the best kernel found for one bin during the offline
// search, along with the full kernel timing profile of that bin.
type BinLabel struct {
	BinID  int
	Rows   int
	AvgLen float64 // true average row length in the bin (the overflow
	// bin caps binID, so binID alone cannot distinguish 100-nnz rows from
	// 10000-nnz rows)
	KernelID    int
	Seconds     float64   // best kernel's simulated time
	KernelTimes []float64 // simulated seconds per kernel ID (space order)

	// Pruned marks kernels the search proved cannot win the bin: their
	// certified analytic lower bound already exceeded the bin's tie window,
	// or their launch was cut short once its partial cost did. For those
	// entries KernelTimes holds that lower bound (the analytic one, or the
	// partial launch's Seconds) instead of a full simulated time. Nil when
	// every kernel was simulated in full (or replayed from cache).
	// Pruning never changes KernelID or Seconds — the equivalence tests hold
	// every search to that with CheckSearchEquivalence (search_equiv_test.go).
	Pruned []bool
}

// ULabel is the search outcome for one granularity on one matrix.
type ULabel struct {
	U       int
	Seconds float64 // sum of best per-bin times
	Bins    []BinLabel
}

// SearchResult is the exhaustive-search labeling of one matrix: the ground
// truth the decision trees are trained on.
type SearchResult struct {
	BestU   int
	Seconds float64 // total time under the best U
	PerU    []ULabel

	// Format is the storage-format dimension of the search, populated only
	// in the synthesized kernel space: the cheapest modeled whole-matrix
	// format among CSR (the binned best, i.e. Seconds) and the device ELL /
	// HYB kernels. It is advisory — execution stays in CSR; a non-CSR pick
	// flags the matrix as one where conversion would pay (DESIGN.md §14).
	// FormatSeconds holds the modeled seconds per candidate format. Both
	// are zero-valued in the pool space, keeping pool results byte-
	// identical to the pre-synthesis search.
	Format        string
	FormatSeconds map[string]float64
}

// BestBins returns the per-bin kernel labels for the winning U.
func (r SearchResult) BestBins() []BinLabel {
	for _, ul := range r.PerU {
		if ul.U == r.BestU {
			return ul.Bins
		}
	}
	return nil
}

// KernelByBin returns the winning U's bin→kernel assignment as a map.
func (r SearchResult) KernelByBin() map[int]int {
	m := map[int]int{}
	for _, bl := range r.BestBins() {
		m[bl.BinID] = bl.KernelID
	}
	return m
}

// KernelFor returns the winning U's kernel for one bin without building the
// KernelByBin map — the allocation-free lookup for hot per-request paths,
// where most matrices have a handful of non-empty bins and a linear scan
// beats a map.
func (r SearchResult) KernelFor(binID int) (int, bool) {
	for _, bl := range r.BestBins() {
		if bl.BinID == binID {
			return bl.KernelID, true
		}
	}
	return 0, false
}

// tieEpsilon is the relative slack used to canonicalize labels: among
// choices within (1+tieEpsilon) of the optimum, the smallest U (and lowest
// kernel ID) is chosen. Near-optimal ties are common — on a uniform matrix
// most granularities produce the same bins — and without canonicalization
// the argmin label is noise that inflates the learning error far beyond
// the paper's 5%/15%.
const tieEpsilon = 0.08

// Search exhaustively evaluates every candidate U and, for each non-empty
// bin, every kernel in the pool on the simulated device, returning the
// labeled optimum. The probe vector v is deterministic (all ones) — kernel
// cost depends only on structure, not values. It is SearchCtx under a
// background context (which cannot expire).
func Search(cfg Config, a *sparse.CSR) SearchResult {
	res, _ := SearchCtx(context.Background(), cfg, a)
	return res
}

// searchTask is one independent cell of the exhaustive search: the full
// kernel pool evaluated on one (U, bin) pair, writing one BinLabel slot.
type searchTask struct {
	ui, bi int
	groups []binning.Group
}

// SearchCtx is Search under a context and the Config.Workers host pool.
// The search fans its (U, bin) cells — each evaluating the whole kernel
// pool on one bin — over at most resolveWorkers(cfg.Workers) goroutines.
// The result is byte-identical for every worker count: cells are
// independent (each writes only its own preallocated slot), and the
// cross-cell reductions — per-U sums and the canonical tie-breaks — run
// sequentially over the slots in fixed (U, bin, kernel) order afterwards.
// Cancellation is polled per cell and inside each simulated launch; on
// expiry an error matching errdefs.ErrCanceled is returned.
func SearchCtx(ctx context.Context, cfg Config, a *sparse.CSR) (SearchResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sp, err := cfg.Space()
	if err != nil {
		return SearchResult{}, err
	}
	list := sp.Infos
	v := make([]float64, a.Cols)
	for i := range v {
		v[i] = 1
	}
	// The search times launches of Config.Vectors right-hand sides (plain
	// SpMV at 0 or 1). Kernel cost depends only on structure, so every
	// right-hand side can alias the same probe vector. The launches only
	// charge the device (kernels.Kernel.Account) and write no output, so
	// every output — across cells and workers — aliases one slice too; it
	// is bound all the same, because its length lays out the launch's
	// simulated memory.
	vsProbe := make([][]float64, max(cfg.Vectors, 1))
	usProbe := make([][]float64, len(vsProbe))
	u := make([]float64, a.Rows)
	for i := range vsProbe {
		vsProbe[i], usProbe[i] = v, u
	}

	// Stage 1 (sequential): bin the matrix per U and lay the result skeleton
	// out in canonical order, one task per non-empty (U, bin) cell.
	res := SearchResult{Seconds: math.Inf(1)}
	var tasks []searchTask
	for _, unit := range cfg.Us {
		b := binning.Coarse(a, unit, cfg.MaxBins)
		ul := ULabel{U: unit}
		for _, binID := range b.NonEmpty() {
			ul.Bins = append(ul.Bins, BinLabel{BinID: binID, Rows: b.NumRows(binID), KernelID: -1,
				AvgLen:      binAvgRowLen(a, b.Bins[binID]),
				KernelTimes: make([]float64, len(list)), Seconds: math.Inf(1)})
			tasks = append(tasks, searchTask{ui: len(res.PerU), bi: len(ul.Bins) - 1, groups: b.Bins[binID]})
		}
		res.PerU = append(res.PerU, ul)
	}

	// Stage 2: evaluate the cells on the worker pool.
	workers := resolveWorkers(cfg.Workers)
	dev := cfg.Device
	// The shared-computation layer (searchcost.go): replay cached cells and
	// skip kernels whose certified lower bound cannot win. Nil = legacy path.
	cl := newCostLayer(cfg, dev, a, sp)
	searchSpaceCellsTotal.Add(int64(len(tasks)) * int64(len(list)))
	var claims cellClaims
	errs := make([]error, len(tasks))
	var stop atomic.Bool
	forEachLimit(workers, len(tasks), func(i int) {
		if stop.Load() {
			return
		}
		if err := ctx.Err(); err != nil {
			errs[i] = errdefs.Canceled(err)
			stop.Store(true)
			return
		}
		t := tasks[i]
		bl := &res.PerU[t.ui].Bins[t.bi]
		var key plancache.CostKey
		var geom cellGeom
		if cl != nil {
			key, geom = cl.cell(t.groups)
			if cl.cache != nil {
				if claims.claim(key) {
					defer claims.release(key)
				}
				if mask, ok := cl.cache.Get(key, bl.KernelTimes, cl.prune); ok {
					finishBinLabel(bl, mask)
					return
				}
			}
		}
		var mask uint64
		order := list
		if cl != nil && cl.prune {
			order = evalOrder(list, geom)
		}
		best := math.Inf(1) // best simulated time so far, in evaluation order
		for _, info := range order {
			// A kernel provably outside the tie window of a faster simulated
			// kernel can neither win the bin nor be picked by the tie-break:
			// skip it when its certified floor is, else cut its launch short
			// once its partial cost is. The slot then holds that lower bound.
			// Order, bounds and cutoffs are pure functions of the cell.
			cutoff := 0.0
			if cl != nil && cl.prune {
				cutoff = best * (1 + tieEpsilon) // +Inf until a kernel ran
				if lb := cl.lowerBound(info, geom); lb > cutoff {
					bl.KernelTimes[info.ID] = lb
					mask |= 1 << info.ID
					continue
				}
			}
			st, err := simulateKernelCtx(ctx, dev, a, vsProbe, usProbe, info.Kernel, kernels.Kernel.Account, t.groups, cutoff)
			if err != nil {
				errs[i] = err
				stop.Store(true)
				return
			}
			bl.KernelTimes[info.ID] = st.Seconds
			if cutoff > 0 && st.Seconds > cutoff { // the launch stopped
				mask |= 1 << info.ID
				continue
			}
			if st.Seconds < best {
				best = st.Seconds
			}
		}
		if cl != nil && cl.cache != nil {
			cl.cache.Put(key, bl.KernelTimes, mask)
			if mask != 0 {
				n := int64(0)
				for m := mask; m != 0; m &= m - 1 {
					n++
				}
				cl.cache.AddPruned(n)
			}
		}
		finishBinLabel(bl, mask)
	})
	for _, err := range errs {
		if err != nil {
			return SearchResult{}, err
		}
	}

	// Stage 3 (sequential): reduce in canonical order — per-U sums, then the
	// smallest granularity within the tie slack.
	for ui := range res.PerU {
		ul := &res.PerU[ui]
		for _, bl := range ul.Bins {
			ul.Seconds += bl.Seconds
		}
		if ul.Seconds < res.Seconds {
			res.Seconds = ul.Seconds
		}
	}
	for _, ul := range res.PerU {
		if ul.Seconds <= res.Seconds*(1+tieEpsilon) {
			res.BestU = ul.U
			res.Seconds = ul.Seconds
			break
		}
	}

	if sp.Size() > len(kernels.Pool()) {
		// The extra dimensions of the synthesized space: count how many
		// best-U bins a non-pool point won (the headline the /metrics
		// family spmvd_search_synth_wins_total aggregates), and evaluate
		// the storage-format alternatives against the binned CSR optimum.
		poolSize := len(kernels.Pool())
		wins := int64(0)
		for _, bl := range res.BestBins() {
			if bl.KernelID >= poolSize {
				wins++
			}
		}
		searchSynthWinsTotal.Add(wins)
		res.Format, res.FormatSeconds = formats.AutoSelect(dev, a, res.Seconds)
	}
	return res, nil
}

// cellClaims orders the cells of one search that share a cost key. Two
// bins under different Us often cover the same rows, and without an order
// two workers could both miss on such a key and both simulate it, so the
// cache's hit, miss and prune counts would depend on scheduling. With it
// the first worker to claim a key simulates the cell; any other waits for
// that worker and then replays the cache like a sequential search would.
type cellClaims struct {
	mu   sync.Mutex
	busy map[plancache.CostKey]chan struct{}
}

// claim reports whether the caller owns key and must release it once the
// cell is in the cache. When another worker owns key, claim waits for it
// and reports false.
func (c *cellClaims) claim(key plancache.CostKey) bool {
	c.mu.Lock()
	if done, ok := c.busy[key]; ok {
		c.mu.Unlock()
		<-done
		return false
	}
	if c.busy == nil {
		c.busy = make(map[plancache.CostKey]chan struct{})
	}
	c.busy[key] = make(chan struct{})
	c.mu.Unlock()
	return true
}

// release wakes the workers waiting on key. The key stays claimed: a later
// cell with the same key finds the cache filled and does not wait.
func (c *cellClaims) release(key plancache.CostKey) {
	c.mu.Lock()
	close(c.busy[key])
	c.mu.Unlock()
}

// finishBinLabel derives the bin's label from a fully populated KernelTimes
// slice: the minimum time, then the canonical tie-break (lowest kernel ID
// within the tie slack). Pruned entries hold lower bounds strictly outside
// the tie window, so they influence neither the minimum nor the pick —
// the label is the same whether the times were simulated, replayed from
// cache, or partially replaced by bounds. mask marks the pruned kernels
// (one bit per space ID — MaxSpaceKernels caps a space at 64).
func finishBinLabel(bl *BinLabel, mask uint64) {
	best := math.Inf(1)
	for _, s := range bl.KernelTimes {
		if s < best {
			best = s
		}
	}
	for kid, s := range bl.KernelTimes {
		if s <= best*(1+tieEpsilon) {
			bl.KernelID = kid
			bl.Seconds = s
			break
		}
	}
	if mask != 0 {
		bl.Pruned = make([]bool, len(bl.KernelTimes))
		for kid := range bl.Pruned {
			bl.Pruned[kid] = mask&(1<<kid) != 0
		}
	}
}

// binAvgRowLen returns the mean stored row length across the groups.
func binAvgRowLen(a *sparse.CSR, groups []binning.Group) float64 {
	var nnz int64
	var rows int64
	for _, g := range groups {
		nnz += a.RowPtr[int(g.Start)+int(g.Count)] - a.RowPtr[g.Start]
		rows += int64(g.Count)
	}
	if rows == 0 {
		return 0
	}
	return float64(nnz) / float64(rows)
}
