// Package core implements the paper's primary contribution: the
// input-aware auto-tuning framework that selects a binning granularity U
// and a per-bin SpMV kernel for any CSR matrix (Figure 3).
//
// Offline (the "train process", green arrows in Figure 3): for every corpus
// matrix, an exhaustive search over candidate granularities and the
// nine-kernel pool — timed on the simulated HSA device — labels the best U
// and the best kernel per bin. Two C5.0-style decision trees are trained:
// stage 1 maps Table I features to U, stage 2 maps (features, U, binID) to
// a kernel.
//
// Online (the "predict process", black arrows): features are extracted from
// the incoming matrix, stage 1 picks U, the matrix is binned, stage 2 picks
// a kernel per non-empty bin, and the bins are executed.
package core

import (
	"context"
	"errors"
	"fmt"

	"spmvtune/internal/binning"
	"spmvtune/internal/errdefs"
	"spmvtune/internal/features"
	"spmvtune/internal/hsa"
	"spmvtune/internal/kernels"
	"spmvtune/internal/plancache"
	"spmvtune/internal/sparse"
)

// Config fixes the search space and the device model of the framework.
type Config struct {
	Device  hsa.Config
	MaxBins int   // bin-count cap (paper: up to 100 bins)
	Us      []int // candidate granularity units

	// ExtendedFeatures trains and predicts on the Table I vector extended
	// with the normalized row-length histogram — the richer parameter set
	// the paper's Section IV-C proposes for future work.
	ExtendedFeatures bool

	// KernelSpace names the candidate kernel enumeration the tuning search
	// ranges over and the stage-2 model classifies into: "" or "pool" is
	// the paper's fixed nine-kernel pool, "synth" the pool followed by the
	// synthesized points that win (kernels.SynthSpace), so pool labels
	// remain valid kernel IDs in every space.
	KernelSpace string

	// Workers bounds the host-side worker pool the exhaustive tuning
	// search fans (U, bin, kernel-pool) evaluations over: <= 0 selects
	// GOMAXPROCS, 1 is fully sequential. The search result is byte-
	// identical for every value — candidate evaluations are independent and
	// the canonical tie-breaking runs over results assembled in fixed
	// (U, bin, kernel) order — so the knob only chooses how much host
	// hardware tuning may occupy.
	Workers int

	// SearchCache holds simulated per-bin kernel costs keyed by content
	// fingerprint, letting the exhaustive search replay identical cells
	// instead of re-simulating them (see DESIGN.md §10). Nil selects the
	// process-wide shared cache; set DisableSearchCache to simulate every
	// cell from scratch. Either way the SearchResult is byte-identical —
	// the cache stores values, never decisions.
	SearchCache        *plancache.CostCache
	DisableSearchCache bool

	// DisableSearchPrune turns off the pruning that skips or cuts short
	// kernels which provably cannot win their bin, and cached cells holding
	// such bounds then miss. Pruning never changes labels (the bounds are
	// certified against the simulator); the knob is for equivalence tests.
	DisableSearchPrune bool

	// Vectors is the number of dense right-hand sides the tuning search
	// models per launch: 0 or 1 searches for plain SpMV (byte-identical to
	// the pre-batch search, including its cache keys), B > 1 times every
	// kernel at launch width B so the search can pick different kernel
	// parameters for batched traffic — at B=8 the structure traffic is
	// amortized eight ways and a wider, more ALU-hungry point often
	// overtakes the B=1 winner. Cost-cache keys and certified lower bounds
	// carry the vector count, so batched and single-vector searches never
	// alias.
	Vectors int
}

// FeatureVector extracts the matrix features this configuration's models
// consume (Table I, optionally extended with the row-length histogram).
func (c Config) FeatureVector(a *sparse.CSR) []float64 {
	if c.ExtendedFeatures {
		return features.ExtractExtended(a)
	}
	return features.Extract(a).Vector()
}

// FeatureNames returns the attribute names matching FeatureVector.
func (c Config) FeatureNames() []string {
	if c.ExtendedFeatures {
		return features.ExtendedNames()
	}
	return features.Names()
}

// Space resolves the configured kernel space ("" = the paper's pool).
// An unknown name is a 400-class error (it arrives from flags).
func (c Config) Space() (*kernels.Space, error) {
	return kernels.SpaceByName(c.KernelSpace)
}

// DefaultConfig returns the paper's setup: the Kaveri-like device, 100
// bins, and the 10..10^6 granularity series.
func DefaultConfig() Config {
	return Config{
		Device:  hsa.DefaultConfig(),
		MaxBins: binning.DefaultMaxBins,
		Us:      binning.Granularities(),
	}
}

// SimulateKernel runs one kernel over the given row groups on a fresh
// device run (one kernel launch) and returns its stats. The u slice
// receives the rows' results.
func SimulateKernel(dev hsa.Config, a *sparse.CSR, v, u []float64, k kernels.Kernel, groups []binning.Group) hsa.Stats {
	st, _ := SimulateKernelCtx(context.Background(), dev, a, v, u, k, groups)
	return st
}

// SimulateKernelCtx is SimulateKernel under a context: the launch polls
// cancellation between work-group dispatches and aborts with an error
// matching errdefs.ErrCanceled (u is then partially written). Other kernel
// panics propagate; Framework.ExecutePlanOpts is the contained path.
func SimulateKernelCtx(ctx context.Context, dev hsa.Config, a *sparse.CSR, v, u []float64, k kernels.Kernel, groups []binning.Group) (hsa.Stats, error) {
	return simulateKernelCtx(ctx, dev, a, [][]float64{v}, [][]float64{u}, k, kernels.Kernel.Run, groups, 0)
}

// simulateKernelCtx is SimulateKernelCtx at any launch width, with any walk
// and cutoff: under kernels.Kernel.Run, us[b] receives A times vs[b] for
// every b (see launchKernel).
func simulateKernelCtx(ctx context.Context, dev hsa.Config, a *sparse.CSR, vs, us [][]float64,
	k kernels.Kernel, walk walk, groups []binning.Group, cutoff float64) (st hsa.Stats, err error) {

	defer func() {
		if rec := recover(); rec != nil {
			if e, ok := rec.(error); ok && errors.Is(e, errdefs.ErrCanceled) {
				err = e
				return
			}
			panic(rec)
		}
	}()
	st, _ = launchKernel(ctx, dev, a, vs, us, k, walk, groups, nil, false, cutoff)
	return st, nil
}

// SimulateBinned is the unguarded bin loop: one kernel launch per non-empty
// bin with the given per-bin kernel choices, no verification and no fallback
// (the regret evaluation and the dispatch-cost experiment time it). It
// returns the summed stats of launches dispatched one after another (Figure
// 4 step 3; QueuedDispatch is the other dispatch rule). Cancellation is
// honored between bin launches and inside each launch; a nil ctx never
// cancels.
func SimulateBinned(ctx context.Context, dev hsa.Config, a *sparse.CSR, v, u []float64, b *binning.Binning, kernelByBin map[int]int) (hsa.Stats, error) {
	return simulateBinned(ctx, dev, a, v, u, b, kernelByBin, kernels.Kernel.Run)
}

// simulateBinned is SimulateBinned under any walk: kernels.Kernel.Account
// charges the same launches and writes nothing to u.
func simulateBinned(ctx context.Context, dev hsa.Config, a *sparse.CSR, v, u []float64, b *binning.Binning, kernelByBin map[int]int, walk walk) (hsa.Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var total hsa.Stats
	for _, binID := range b.NonEmpty() {
		if err := ctx.Err(); err != nil {
			return total, errdefs.Canceled(err)
		}
		kid, ok := kernelByBin[binID]
		if !ok {
			return total, fmt.Errorf("core: no kernel assigned to non-empty bin %d", binID)
		}
		info, ok := kernels.ByID(kid)
		if !ok {
			return total, fmt.Errorf("core: unknown kernel id %d for bin %d", kid, binID)
		}
		st, err := simulateKernelCtx(ctx, dev, a, [][]float64{v}, [][]float64{u}, info.Kernel, walk, b.Bins[binID], 0)
		if err != nil {
			return total, err
		}
		total.Add(st)
	}
	return total, nil
}

// SimulateSingleKernel runs one kernel over the whole matrix as a single
// launch — the paper's "default SpMV using only one single kernel"
// baseline (kernel-serial and kernel-vector in Figure 6).
func SimulateSingleKernel(dev hsa.Config, a *sparse.CSR, v, u []float64, kernelID int) (hsa.Stats, error) {
	info, ok := kernels.ByID(kernelID)
	if !ok {
		return hsa.Stats{}, fmt.Errorf("core: unknown kernel id %d", kernelID)
	}
	return SimulateKernel(dev, a, v, u, info.Kernel, binning.Single(a).Bins[0]), nil
}
