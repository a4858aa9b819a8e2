package core

import (
	"cmp"
	"context"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"spmvtune/internal/binning"
	"spmvtune/internal/errdefs"
	"spmvtune/internal/formats"
	"spmvtune/internal/hsa"
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

// searchTask is one cell of the search: the kernel space on one (U, bin) of
// matrix mi, into one BinLabel slot; key and geom are zero without a cost layer.
type searchTask struct {
	mi, ui, bi int
	groups     []binning.Group
	key        plancache.CostKey
	geom       cellGeom
}

// searchInput is one matrix of a search with its cost layer and probes.
type searchInput struct {
	a      *sparse.CSR
	cl     *costLayer
	vs, us [][]float64
}

// SearchCtx is Search under a context and the Config.Workers host pool:
// the one-matrix call of SearchAll.
func SearchCtx(ctx context.Context, cfg Config, a *sparse.CSR) (SearchResult, error) {
	res, err := SearchAll(ctx, cfg, []*sparse.CSR{a})
	if err != nil {
		return SearchResult{}, err
	}
	return res[0], nil
}

// SearchAll labels a batch of matrices on one pool of at most
// resolveWorkers(cfg.Workers) goroutines, fanning the (U, bin) cells of
// every matrix over it. Cells sharing a cost key form one group, scheduled
// once, largest nonzero count first: its first cell in canonical order
// simulates, the others then replay the cost cache on the same worker. So
// results, and the cache's counts, equal those of searching the matrices
// one by one in order at every worker count; the per-U sums and canonical
// tie-breaks run sequentially afterwards. Cancellation is polled per cell
// and inside each launch; on expiry an error matching errdefs.ErrCanceled
// is returned.
func SearchAll(ctx context.Context, cfg Config, mats []*sparse.CSR) ([]SearchResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sp, err := cfg.Space()
	if err != nil {
		return nil, err
	}
	list := sp.Infos

	// Stage 1 (sequential): bin each matrix per U and lay its result out in
	// canonical order, one task per non-empty (U, bin) cell, keyed and grouped.
	results := make([]SearchResult, len(mats))
	inputs := make([]searchInput, len(mats))
	var tasks []searchTask
	var cells [][]int // task indices of each scheduled group, owner first
	owner := map[plancache.CostKey]int{}
	for mi, a := range mats {
		// Every right-hand side of the Config.Vectors-wide launches aliases
		// one all-ones probe (cost depends on structure only), and every
		// output one slice: Account writes none, but its length lays out
		// the launch's simulated memory.
		in := &inputs[mi]
		in.a = a
		in.cl = newCostLayer(cfg, cfg.Device, a, sp)
		v := make([]float64, a.Cols)
		for i := range v {
			v[i] = 1
		}
		u := make([]float64, a.Rows)
		for range max(cfg.Vectors, 1) {
			in.vs, in.us = append(in.vs, v), append(in.us, u)
		}
		res := &results[mi]
		res.Seconds = math.Inf(1)
		for _, unit := range cfg.Us {
			b := binning.Coarse(a, unit, cfg.MaxBins)
			ul := ULabel{U: unit}
			for _, binID := range b.NonEmpty() {
				ul.Bins = append(ul.Bins, BinLabel{BinID: binID, Rows: b.NumRows(binID), KernelID: -1,
					AvgLen:      binAvgRowLen(a, b.Bins[binID]),
					KernelTimes: make([]float64, len(list)), Seconds: math.Inf(1)})
				t := searchTask{mi: mi, ui: len(res.PerU), bi: len(ul.Bins) - 1, groups: b.Bins[binID]}
				if in.cl != nil {
					t.key, t.geom = in.cl.cell(t.groups)
				}
				g, dup := owner[t.key]
				if !dup || in.cl == nil { // without a cost layer no cell has a key
					g = len(cells)
					cells = append(cells, nil)
					owner[t.key] = g
				}
				cells[g] = append(cells[g], len(tasks))
				tasks = append(tasks, t)
			}
			res.PerU = append(res.PerU, ul)
		}
	}
	slices.SortStableFunc(cells, func(x, y []int) int {
		return cmp.Compare(tasks[y[0]].geom.nnz, tasks[x[0]].geom.nnz)
	})

	// Stage 2: evaluate the groups on the worker pool.
	searchSpaceCellsTotal.Add(int64(len(tasks)) * int64(len(list)))
	errs := make([]error, len(cells))
	var stop atomic.Bool
	forEachLimit(resolveWorkers(cfg.Workers), len(cells), func(g int) {
		for _, ti := range cells[g] {
			if stop.Load() {
				return
			}
			t := tasks[ti]
			if err := inputs[t.mi].evalCell(ctx, cfg.Device, list, t, &results[t.mi].PerU[t.ui].Bins[t.bi]); err != nil {
				errs[g] = err
				stop.Store(true)
				return
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Stage 3 (sequential): reduce each matrix in canonical order — per-U
	// sums, then the smallest granularity within the tie slack.
	for mi := range results {
		res := &results[mi]
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
			res.Format, res.FormatSeconds = formats.AutoSelect(cfg.Device, mats[mi], res.Seconds)
		}
	}
	return results, nil
}

// evalCell fills one cell's BinLabel: it replays the cell from the cost
// cache when present, else simulates the kernels of list on it (pruning
// those that provably cannot win) and stores the profile in the cache.
func (in *searchInput) evalCell(ctx context.Context, dev hsa.Config, list []kernels.Info, t searchTask, bl *BinLabel) error {
	if err := ctx.Err(); err != nil {
		return errdefs.Canceled(err)
	}
	cl := in.cl
	if cl != nil && cl.cache != nil {
		if mask, ok := cl.cache.Get(t.key, bl.KernelTimes, cl.prune); ok {
			finishBinLabel(bl, mask)
			return nil
		}
	}
	var mask uint64
	order := list
	if cl != nil && cl.prune {
		order = evalOrder(list, t.geom)
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
			if lb := cl.lowerBound(info, t.geom); lb > cutoff {
				bl.KernelTimes[info.ID] = lb
				mask |= 1 << info.ID
				continue
			}
		}
		st, err := simulateKernelCtx(ctx, dev, in.a, in.vs, in.us, info.Kernel, kernels.Kernel.Account, t.groups, cutoff)
		if err != nil {
			return err
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
		cl.cache.Put(t.key, bl.KernelTimes, mask)
		if mask != 0 {
			cl.cache.AddPruned(int64(bits.OnesCount64(mask)))
		}
	}
	finishBinLabel(bl, mask)
	return nil
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
