package core

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"math/bits"
	"slices"

	"spmvtune/internal/binning"
	"spmvtune/internal/hsa"
	"spmvtune/internal/kernels"
	"spmvtune/internal/plan"
	"spmvtune/internal/plancache"
	"spmvtune/internal/sparse"
)

// This file is the shared-computation layer under the exhaustive search:
// a content-addressed cost cache that replays previously simulated
// (device, matrix-structure, row-range) cells, and a pruner that skips
// simulating (by an analytic lower bound) or cuts short (by a cutoff on the
// launch's partial cost) kernels which provably cannot win their bin.
// Both preserve byte-identical search labels — the cache stores simulator
// outputs keyed by everything the cost model reads, and the pruning bound
// is certified against the simulator's charging rules (see DESIGN.md §10).

// sharedSearchCache is the process-wide default cost cache used when
// Config.SearchCache is nil. Sharing it across searches is what makes
// repeated tuning of structurally identical matrices (the serving daemon's
// steady state) nearly free.
var sharedSearchCache = plancache.NewCostCache(plancache.CostCacheOptions{})

// SharedSearchCostCache returns the process-wide default search cost cache.
func SharedSearchCostCache() *plancache.CostCache { return sharedSearchCache }

// SearchCacheStats reports the process-wide default cache's counters, for
// metrics exposition (spmvd_search_cache_*).
func SearchCacheStats() plancache.CostStats { return sharedSearchCache.Stats() }

// costLayer carries the per-search state of the shared-computation layer.
// A nil *costLayer selects the pure legacy path (simulate every cell).
type costLayer struct {
	dev   hsa.Config
	cache *plancache.CostCache // nil = caching disabled
	prune bool
	a     *sparse.CSR
	// vecs is the launch width the search models (Config.Vectors, floored
	// at 1). The pipe floors scale with it, and at vecs > 1 the cell keys
	// carry it, so batched and single-vector cost entries never alias.
	vecs int
	// prefix is deviceFingerprint || spaceFingerprint || matrixFingerprint
	// — the key material shared by every cell of this search.
	prefix []byte
	// rowLen[r] is the stored length of row r, computed once per matrix from
	// the row-pointer prefix array and shared read-only by all cells.
	rowLen []int32
}

// newCostLayer builds the shared layer for one search, or returns nil when
// the config disables both the cache and the pruner. dev is the device the
// search launches on; its fingerprint heads every cell key. sp is the
// kernel space the search enumerates: its parameter fingerprint is part of
// every cell key, so entries from spaces differing in any point — even one
// kernel's LDS tiling — can never collide (a cached cell stores one
// KernelTimes vector per space layout).
func newCostLayer(cfg Config, dev hsa.Config, a *sparse.CSR, sp *kernels.Space) *costLayer {
	cache := cfg.SearchCache
	if cache == nil {
		cache = sharedSearchCache
	}
	if cfg.DisableSearchCache {
		cache = nil
	}
	prune := !cfg.DisableSearchPrune
	if cache == nil && !prune {
		return nil
	}
	vecs := max(cfg.Vectors, 1)
	cl := &costLayer{dev: dev, cache: cache, prune: prune, a: a, vecs: vecs}
	var p [16]byte
	binary.LittleEndian.PutUint64(p[0:8], dev.Fingerprint())
	binary.LittleEndian.PutUint64(p[8:16], sp.Fingerprint())
	cl.prefix = append(p[:], plan.Fingerprint(a)...)
	if vecs > 1 {
		// Single-vector searches keep the exact pre-batch key material, so
		// every cache entry written by older builds replays unchanged; only
		// batched searches append the width.
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], uint64(vecs))
		cl.prefix = append(cl.prefix, w[:]...)
	}
	cl.rowLen = make([]int32, a.Rows)
	for i := range cl.rowLen {
		cl.rowLen[i] = int32(a.RowPtr[i+1] - a.RowPtr[i])
	}
	return cl
}

// cellGeom is the geometry of one (U, bin) cell that the lower bounds and
// the evaluation order read: row count, nonzero count, longest row, and the
// certified floor on distinct cache segments the kernels must touch.
type cellGeom struct {
	rows   int
	nnz    int64
	maxLen int
	segs   int64
}

// cell fingerprints one bin's row coverage and computes its geometry in a
// single pass. The key digests the device fingerprint, the matrix structure
// fingerprint, and the bin's coalesced [start, end) row ranges — everything
// the simulated cost of a launch depends on. Group partition boundaries are
// deliberately excluded: kernels consume rows through a flat row iterator,
// so two binnings covering the same rows in the same order cost the same.
func (cl *costLayer) cell(groups []binning.Group) (plancache.CostKey, cellGeom) {
	h := sha256.New()
	h.Write(cl.prefix)
	var buf [16]byte
	var g cellGeom
	segBytes := cl.dev.SegmentBytes
	prev8, prev4 := int64(-1), int64(-1)
	for i := 0; i < len(groups); {
		start := groups[i].Start
		end := start + groups[i].Count
		for i++; i < len(groups) && groups[i].Start == end; i++ {
			end += groups[i].Count
		}
		binary.LittleEndian.PutUint64(buf[0:8], uint64(start))
		binary.LittleEndian.PutUint64(buf[8:16], uint64(end))
		h.Write(buf[:])
		g.rows += int(end - start)
		for r := start; r < end; r++ {
			if l := int(cl.rowLen[r]); l > g.maxLen {
				g.maxLen = l
			}
		}
		lo, hi := cl.a.RowPtr[start], cl.a.RowPtr[end]
		g.nnz += hi - lo
		if hi > lo {
			g.segs += segRange(lo, hi, 8, segBytes, &prev8) // val (float64)
			g.segs += segRange(lo, hi, 4, segBytes, &prev4) // colidx (int32)
		}
	}
	sum := h.Sum(nil)
	var key plancache.CostKey
	key[0] = binary.LittleEndian.Uint64(sum[0:8])
	key[1] = binary.LittleEndian.Uint64(sum[8:16])
	return key, g
}

// segRange counts the distinct cache segments the element range [lo, hi)
// touches in a region of elem-byte elements. Regions are segment-aligned,
// so segment indices reduce to (k*elem)/segBytes. Ascending adjacent ranges
// can share at most their boundary segment (*prev carries the previous
// range's last segment), which is subtracted so the total never overcounts.
func segRange(lo, hi, elem, segBytes int64, prev *int64) int64 {
	first := lo * elem / segBytes
	last := (hi*elem - 1) / segBytes
	n := last - first + 1
	if *prev == first {
		n--
	}
	*prev = last
	return n
}

// lowerBound returns a certified lower bound, in seconds, on simulating one
// kernel over a cell with geometry g: the simulator's Stats.Seconds is
// always >= the returned value. Three bounds are combined (DESIGN.md §10
// derives each from the simulator's charging rules):
//
//   - additive CU bound: every work-group charges its dispatch overhead to
//     a compute unit, and every mandatory segment transaction costs at
//     least TxHitCycles on some SIMD pipe (a work-group's cost is its
//     busiest pipe >= pipe sum / SIMDPerCU); the makespan is at least the
//     total CU load divided evenly;
//   - divergence pipe floor: the wavefront covering the longest row pays an
//     irreducible per-iteration pipe cost (kernels.Kernel.PipeFloor);
//   - DRAM roofline: every distinct segment is fetched at least once on a
//     cold cache, and the makespan is bounded by DRAM bandwidth.
func (cl *costLayer) lowerBound(info kernels.Info, g cellGeom) float64 {
	d := cl.dev
	rowsPer := info.Kernel.RowsPerWG(d)
	wgs := (g.rows + rowsPer - 1) / rowsPer
	tx := float64(g.segs) * d.TxHitCycles
	lb := (float64(wgs)*d.WGLaunchCycles + tx/float64(d.SIMDPerCU)) / float64(d.NumCUs)
	// The additive and DRAM terms count only structure segments (values and
	// column indices), which a launch touches exactly once whatever its
	// width, so they stay sound verbatim; only the pipe floor scales with
	// the vector count.
	if f := info.Kernel.PipeFloor(d, g.maxLen, cl.vecs); f > lb {
		lb = f
	}
	if bw := float64(g.segs) * float64(d.SegmentBytes) / d.DRAMBytesPerCycle; bw > lb {
		lb = bw
	}
	return (lb + d.KernelLaunchCycles) / d.ClockHz
}

// evalOrder returns the space's kernels in the order a pruning search
// simulates them on a cell: by the distance |log2 TPR - floor(log2 mean row
// length)| between a kernel's threads per row and the cell's rows, ties by
// ID. The winning kernel follows row length (the paper's Figure 2), so the
// likely winner runs first and the tie window is tight before the costly
// mismatches run. It is integer arithmetic, a pure function of the cell on
// every platform.
func evalOrder(list []kernels.Info, g cellGeom) []kernels.Info {
	logLen := bits.Len64(uint64(g.nnz/int64(g.rows))) - 1
	dist := func(info kernels.Info) int {
		d := bits.Len(uint(info.Kernel.P.TPR)) - 1 - logLen
		return max(d, -d)
	}
	out := slices.Clone(list)
	slices.SortFunc(out, func(x, y kernels.Info) int {
		return cmp.Or(cmp.Compare(dist(x), dist(y)), cmp.Compare(x.ID, y.ID))
	})
	return out
}
