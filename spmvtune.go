// Package spmvtune is an input-aware auto-tuning framework for CSR-based
// sparse matrix-vector multiplication (SpMV), reproducing Hou, Feng & Che,
// "Auto-Tuning Strategies for Parallelizing Sparse Matrix-Vector (SpMV)
// Multiplication on Multi- and Many-Core Processors" (2017).
//
// The framework groups matrix rows into workload bins ("binning") at a
// learned granularity U and selects, per bin, the best of nine SpMV kernels
// (serial / subvector-X / vector thread organizations) using a two-stage
// C5.0-style decision-tree model trained offline on a matrix corpus.
// Kernels execute on a deterministic simulator of a GCN-like HSA device
// (the paper's AMD APU) and natively on the host CPU.
//
// Quick start:
//
//	model, _, err := spmvtune.TrainPipeline(spmvtune.DefaultConfig(), spmvtune.DefaultTrainOptions())
//	fw := spmvtune.NewFramework(spmvtune.DefaultConfig(), model)
//	decision, stats, err := spmvtune.RunSim(fw, a, v, u) // u = A*v, auto-tuned
//
// A Framework has two verbs, the two steps of the paper's runtime (Figure 3):
// Plan decides — features, U, bins, a kernel per bin, reified as a
// TuningPlan that can be cached and serialized — and ExecutePlanOpts /
// ExecutePlanBatchOpts run a plan on one or B vectors through the guarded
// chain. RunSim is those two calls for a one-shot product; PrepareCPU is
// the native-host form for iterative solvers.
package spmvtune

import (
	"context"
	"fmt"

	"spmvtune/internal/binning"
	"spmvtune/internal/c50"
	"spmvtune/internal/core"
	"spmvtune/internal/cpu"
	"spmvtune/internal/csradaptive"
	"spmvtune/internal/errdefs"
	"spmvtune/internal/features"
	"spmvtune/internal/hsa"
	"spmvtune/internal/kernels"
	"spmvtune/internal/matgen"
	"spmvtune/internal/mmio"
	"spmvtune/internal/sparse"
)

// Core sparse types.
type (
	// Matrix is a sparse matrix in compressed sparse row format.
	Matrix = sparse.CSR
	// Entry is a (column, value) pair used to assemble matrices row-wise.
	Entry = sparse.Entry
	// COO is a coordinate-format matrix for incremental assembly.
	COO = sparse.COO
	// Features is the Table I feature vector of a matrix.
	Features = features.F
)

// Framework types.
type (
	// Config fixes the device model, bin cap and granularity candidates.
	Config = core.Config
	// Model is the trained two-stage predictor.
	Model = core.Model
	// Framework couples a model with a device for runtime auto-tuning.
	Framework = core.Framework
	// Decision is a chosen (U, per-bin kernel) strategy.
	Decision = core.Decision
	// DeviceConfig describes the simulated HSA device.
	DeviceConfig = hsa.Config
	// DeviceStats aggregates simulated device activity and time.
	DeviceStats = hsa.Stats
	// Binning is a grouping of matrix rows into workload bins.
	Binning = binning.Binning
	// TreeOptions controls decision-tree induction.
	TreeOptions = c50.Options
)

// Failure semantics ------------------------------------------------------

// Typed error sentinels for the resilient execution layer; test with
// errors.Is. Every error from the guarded paths matches exactly one class
// (budget faults additionally match ErrKernelFault).
var (
	// ErrInvalidMatrix marks malformed matrix input (bad file, bad shape).
	ErrInvalidMatrix = errdefs.ErrInvalidMatrix
	// ErrKernelFault marks a simulated-device kernel abort.
	ErrKernelFault = errdefs.ErrKernelFault
	// ErrBudgetExceeded marks a kernel that exhausted its cycle budget.
	ErrBudgetExceeded = errdefs.ErrBudgetExceeded
	// ErrCanceled marks an execution stopped by context cancellation or
	// deadline; it also matches the underlying context sentinel.
	ErrCanceled = errdefs.ErrCanceled
)

// Guarded-execution types (see Framework.ExecutePlanOpts).
type (
	// GuardOptions tunes retries, backoff, verification tolerance and
	// fault injection for a guarded run.
	GuardOptions = core.GuardOptions
	// ExecReport records every fallback and retry decision of one
	// guarded run.
	ExecReport = core.ExecReport
	// BinReport records how one bin was finally served.
	BinReport = core.BinReport
	// FaultPlan is a deterministic fault-injection plan for the
	// simulated device.
	FaultPlan = hsa.FaultPlan
	// Fault describes one injected fault (class, transience, budget).
	Fault = hsa.Fault
	// FaultClass enumerates the injectable fault classes.
	FaultClass = hsa.FaultClass
)

// Injectable fault classes.
const (
	FaultLDSOverflow       = hsa.FaultLDSOverflow
	FaultBarrierDivergence = hsa.FaultBarrierDivergence
	FaultCycleBudget       = hsa.FaultCycleBudget
	FaultNaNPoison         = hsa.FaultNaNPoison
)

// DefaultGuardOptions returns the guarded executor's defaults (two
// attempts per chain link, doubling backoff, 1e-9 verification tolerance).
func DefaultGuardOptions() GuardOptions { return core.DefaultGuardOptions() }

// NewFaultPlan returns an empty fault-injection plan.
func NewFaultPlan() *FaultPlan { return hsa.NewFaultPlan() }

// DefaultConfig returns the paper's setup: a Kaveri-like 8-CU device, up
// to 100 bins, and granularities 10, 20, 50, ..., 10^6.
func DefaultConfig() Config { return core.DefaultConfig() }

// NewFramework builds a runtime framework from a config and trained model.
func NewFramework(cfg Config, m *Model) *Framework { return core.NewFramework(cfg, m) }

// RunSim computes u = A*v auto-tuned on the simulated device: fw.Plan, then
// fw.ExecutePlanOpts under DefaultGuardOptions. It returns the decision and
// the summed device stats of the launches that served the bins; u is
// verified against the sequential reference. Callers that multiply by one
// matrix repeatedly, or want the ExecReport, make the two calls themselves
// and keep the plan.
func RunSim(fw *Framework, a *Matrix, v, u []float64) (Decision, DeviceStats, error) {
	ctx := context.Background()
	p, err := fw.Plan(ctx, a)
	if err != nil {
		return Decision{}, DeviceStats{}, err
	}
	rep, err := fw.ExecutePlanOpts(ctx, p, a, v, u, core.DefaultGuardOptions())
	return rep.Decision, rep.Stats, err
}

// PrepareCPU decides the strategy once and returns a reusable native SpMV
// closure over it (workers <= 0 selects GOMAXPROCS) — the right form for
// iterative solvers, which multiply by the same matrix hundreds of times:
// amortizing the feature extraction and binning is the framework's whole
// economic argument.
func PrepareCPU(fw *Framework, a *Matrix, workers int) (Decision, SpMV) {
	d, b := fw.Decide(a)
	return d, func(v, u []float64) { cpu.MulVecBinned(a, v, u, b, workers) }
}

// Extract computes the Table I features of a matrix.
func Extract(a *Matrix) Features { return features.Extract(a) }

// FeatureNames returns the Table I attribute names in vector order.
func FeatureNames() []string { return features.Names() }

// KernelNames returns the nine kernel names in pool (class-label) order.
func KernelNames() []string {
	pool := kernels.Pool()
	names := make([]string, len(pool))
	for i, info := range pool {
		names[i] = info.Name
	}
	return names
}

// Granularities returns the paper's candidate U series.
func Granularities() []int { return binning.Granularities() }

// CoarseBin groups rows with the paper's coarse virtual-row scheme.
func CoarseBin(a *Matrix, u, maxBins int) *Binning { return binning.Coarse(a, u, maxBins) }

// SingleBin places all rows into one bin (the Figure 9 strategy).
func SingleBin(a *Matrix) *Binning { return binning.Single(a) }

// NewMatrixFromRows assembles a CSR matrix from per-row (column, value)
// entries, used as given (not sorted or deduplicated).
func NewMatrixFromRows(rows, cols int, entries [][]Entry) (*Matrix, error) {
	return sparse.NewCSRFromRows(rows, cols, entries)
}

// ReadMatrixMarket loads a Matrix Market file as CSR.
func ReadMatrixMarket(path string) (*Matrix, error) { return mmio.ReadFile(path) }

// WriteMatrixMarket stores the matrix in Matrix Market coordinate format.
func WriteMatrixMarket(path string, a *Matrix, comments ...string) error {
	return mmio.WriteFile(path, a, comments...)
}

// SaveModel / LoadModel persist trained models as JSON.
func SaveModel(path string, m *Model) error           { return core.SaveModel(path, m) }
func LoadModel(path string) (*Model, error)           { return core.LoadModel(path) }
func DefaultTreeOptions() TreeOptions                 { return c50.DefaultOptions() }
func DeviceDefault() DeviceConfig                     { return hsa.DefaultConfig() }
func Reference(a *Matrix, v, u []float64)             { a.MulVec(v, u) }
func VecApproxEqual(x, y []float64, tol float64) bool { return sparse.VecApproxEqual(x, y, tol) }

// TrainOptions configures the offline training pipeline.
type TrainOptions struct {
	CorpusSize    int   // number of synthetic corpus matrices
	MinRows       int   // smallest corpus matrix (0 = the default corpus's)
	MaxRows       int   // largest corpus matrix (0 = the default corpus's)
	Seed          int64 // corpus seed
	TrainFraction float64
	Tree          TreeOptions
	Progress      func(done, total int) // optional progress callback
}

// DefaultTrainOptions sizes the pipeline for a single machine (the paper
// uses ~2000 UF matrices; the synthetic default favors feature coverage).
func DefaultTrainOptions() TrainOptions {
	o := matgen.DefaultCorpusOptions()
	return TrainOptions{
		CorpusSize:    o.N,
		MinRows:       o.MinRows,
		MaxRows:       o.MaxRows,
		Seed:          o.Seed,
		TrainFraction: 0.75,
		Tree:          c50.DefaultOptions(),
	}
}

// TrainReport summarizes an offline training run.
type TrainReport struct {
	Corpus      int
	Stage1Train int
	Stage2Train int
	Stage1Error float64 // held-out error rate of the U predictor
	Stage2Error float64 // held-out error rate of the kernel predictor
}

// TrainPipeline runs the full offline path of Figure 3: generate a corpus,
// label every matrix by exhaustive search on the simulated device, train
// the two-stage model on a train split, and evaluate on the held-out rest.
func TrainPipeline(cfg Config, opts TrainOptions) (*Model, TrainReport, error) {
	if opts.CorpusSize <= 0 {
		return nil, TrainReport{}, fmt.Errorf("spmvtune: corpus size must be positive")
	}
	if opts.TrainFraction <= 0 || opts.TrainFraction > 1 {
		opts.TrainFraction = 0.75
	}
	co, err := matgen.CorpusOptions{
		N: opts.CorpusSize, MinRows: opts.MinRows, MaxRows: opts.MaxRows, Seed: opts.Seed,
	}.WithDefaultBounds()
	if err != nil {
		return nil, TrainReport{}, err
	}
	corpus := matgen.ValueFreeCorpus(co)
	td := core.NewTrainingData(cfg)
	for i, cm := range corpus {
		td.AddMatrix(cfg, cm.A)
		if opts.Progress != nil {
			opts.Progress(i+1, len(corpus))
		}
	}
	td.Finalize()
	tr1, te1 := td.Stage1.Split(opts.TrainFraction, opts.Seed)
	tr2, te2 := td.Stage2.Split(opts.TrainFraction, opts.Seed)
	m := &Model{Us: cfg.Us, MaxBins: cfg.MaxBins,
		Stage1: c50.Train(tr1, opts.Tree),
		Stage2: c50.Train(tr2, opts.Tree)}
	rep := TrainReport{Corpus: len(corpus), Stage1Train: tr1.Len(), Stage2Train: tr2.Len()}
	rep.Stage1Error, _ = c50.Evaluate(m.Stage1, te1)
	rep.Stage2Error, _ = c50.Evaluate(m.Stage2, te2)
	return m, rep, nil
}

// Baselines ------------------------------------------------------------

// RunSingleKernelSim executes the whole matrix with one kernel (by pool
// name: "serial", "subvector2"..."subvector128", "vector") on the
// simulated device.
func RunSingleKernelSim(dev DeviceConfig, a *Matrix, v, u []float64, kernel string) (DeviceStats, error) {
	info, ok := kernels.ByName(kernel)
	if !ok {
		return DeviceStats{}, fmt.Errorf("spmvtune: unknown kernel %q", kernel)
	}
	return core.SimulateSingleKernel(dev, a, v, u, info.ID)
}

// RunCSRAdaptiveSim executes the CSR-Adaptive baseline on the simulated
// device. blockNNZ <= 0 uses the default row-block workload limit.
func RunCSRAdaptiveSim(dev DeviceConfig, a *Matrix, v, u []float64, blockNNZ int) DeviceStats {
	return csradaptive.SimulateSpMV(dev, a, v, u, blockNNZ)
}

// Generators ------------------------------------------------------------
// Seeded synthetic matrix generators spanning the application domains of
// the paper's Table II; see DESIGN.md for the substitution rationale.

// GenBanded makes a square banded (FEM-stencil) matrix.
func GenBanded(rows, band int, seed int64) *Matrix { return matgen.Banded(rows, band, seed) }

// GenRoadNetwork makes a road-graph-like matrix (degree 1-4, local links).
func GenRoadNetwork(rows int, seed int64) *Matrix { return matgen.RoadNetwork(rows, seed) }

// GenPowerLaw makes a scale-free-like matrix with heavy-tailed row lengths.
func GenPowerLaw(rows, avg int, alpha float64, maxLen int, seed int64) *Matrix {
	return matgen.PowerLaw(rows, avg, alpha, maxLen, seed)
}

// GenBlockFEM makes a block-structured matrix with long rows.
func GenBlockFEM(rows, width, jitter int, seed int64) *Matrix {
	return matgen.BlockFEM(rows, width, jitter, seed)
}

// GenBipartite makes a rectangular combinatorial matrix with fixed-length rows.
func GenBipartite(rows, cols, rowLen int, seed int64) *Matrix {
	return matgen.Bipartite(rows, cols, rowLen, seed)
}

// GenMixed makes a matrix whose row length cycles across regions.
func GenMixed(rows, cols, regionRows int, lens []int, seed int64) *Matrix {
	return matgen.Mixed(rows, cols, regionRows, lens, seed)
}

// GenRMAT makes a recursive-matrix (Kronecker) graph of 2^scale vertices
// with skewed, clustered degrees (web/social-graph shape).
func GenRMAT(scale, avgDeg int, a, b, c float64, seed int64) *Matrix {
	return matgen.RMAT(scale, avgDeg, a, b, c, seed)
}
