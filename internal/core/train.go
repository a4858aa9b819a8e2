package core

import (
	"context"
	"fmt"
	"math"

	"spmvtune/internal/c50"
	"spmvtune/internal/features"
	"spmvtune/internal/kernels"
	"spmvtune/internal/sparse"
)

// TrainingData holds the two-stage attribute vectors of Section III-C:
// Stage1 is {M, N, NNZ, Var_NNZ, Avg_NNZ, Min_NNZ, Max_NNZ} -> U;
// Stage2 is {features..., U, binID} -> kernelID.
//
// AddMatrix collects raw search results; Finalize canonicalizes the labels
// and fills the datasets. Canonicalization picks, from each sample's set of
// near-optimal choices (within the search tie slack), the globally most
// popular one — near-ties are endemic (adjacent subvector widths differ by
// a few percent at most on many bins), and without this step the argmin
// label is noise that no classifier can learn.
type TrainingData struct {
	Stage1 *c50.Dataset
	Stage2 *c50.Dataset
	Us     []int // class order of Stage1

	raw       []rawLabel
	space     *kernels.Space
	extended  bool
	finalized bool
}

// rawLabel is one matrix's exhaustive-search outcome plus its feature
// vector (basic or extended, per the configuration).
type rawLabel struct {
	vec []float64
	res SearchResult
}

// uClassNames renders the candidate granularities as class labels.
func uClassNames(us []int) []string {
	names := make([]string, len(us))
	for i, u := range us {
		names[i] = fmt.Sprintf("U=%d", u)
	}
	return names
}

// kernelClassNames renders the space's kernels as stage-2 class labels.
// Over the synthesized space this is the learned quantization of the
// parameter space: the tree's leaves name concrete KernelParams points, so
// predicting a class IS predicting a parameter vector.
func kernelClassNames(sp *kernels.Space) []string {
	names := make([]string, len(sp.Infos))
	for i, info := range sp.Infos {
		names[i] = info.Name
	}
	return names
}

// canonicalSpaceName maps the pool space to "" so models (and the plans they
// emit) trained on the paper's pool keep the exact serialized form — and
// ModelVersion hashes — of pre-synthesis builds.
func canonicalSpaceName(sp *kernels.Space) string {
	if sp == nil || sp == kernels.PoolSpace() {
		return ""
	}
	return sp.Name
}

// kernelSpace resolves the collection's space, defaulting literal
// TrainingData values (the train/test split pattern carries only the two
// datasets) to the pool.
func (td *TrainingData) kernelSpace() *kernels.Space {
	if td.space == nil {
		return kernels.PoolSpace()
	}
	return td.space
}

// NewTrainingData creates empty two-stage datasets over cfg's search space.
func NewTrainingData(cfg Config) *TrainingData {
	// The stage-2 attribute vector is the paper's {features..., U, binID}
	// plus the bin's row count. The extension carries the launch-
	// amortization signal binID alone cannot (a 10-row bin and a 100k-row
	// bin at the same binID want different kernels) and cuts the held-out
	// stage-2 error by a third; the paper's Section IV-C calls for exactly
	// this kind of richer feature. With cfg.ExtendedFeatures the base
	// vector additionally carries the row-length histogram.
	sp, err := cfg.Space()
	if err != nil {
		// Config misuse, like AddMatrices-after-Finalize: the CLI validates
		// -kernel-space long before training data is allocated.
		panic(err)
	}
	names := cfg.FeatureNames()
	s2Attrs := append(append([]string{}, names...), "U", "binID", "binRows", "binAvgLen")
	return &TrainingData{
		Stage1:   c50.NewDataset(names, uClassNames(cfg.Us)),
		Stage2:   c50.NewDataset(s2Attrs, kernelClassNames(sp)),
		Us:       cfg.Us,
		space:    sp,
		extended: cfg.ExtendedFeatures,
	}
}

// AddMatrix labels one matrix by exhaustive search and records the raw
// result: the one-matrix call of AddMatrices.
func (td *TrainingData) AddMatrix(cfg Config, a *sparse.CSR) SearchResult {
	return td.AddMatrices(cfg, []*sparse.CSR{a})[0]
}

// AddMatrices labels a batch of matrices in one exhaustive search
// (SearchAll) and records the raw results in batch order; Finalize turns
// the accumulated records into training samples.
func (td *TrainingData) AddMatrices(cfg Config, mats []*sparse.CSR) []SearchResult {
	if td.finalized {
		panic("core: AddMatrices after Finalize")
	}
	res, err := SearchAll(context.Background(), cfg, mats)
	if err != nil { // an unknown kernel space: config misuse, as in NewTrainingData
		panic(err)
	}
	for i, a := range mats {
		td.raw = append(td.raw, rawLabel{vec: cfg.FeatureVector(a), res: res[i]})
	}
	return res
}

// uCandidates returns the stage-1 candidate class indices (granularities
// within the tie slack of the matrix's optimum).
func (td *TrainingData) uCandidates(res SearchResult) []int {
	best := math.Inf(1)
	for _, ul := range res.PerU {
		if ul.Seconds < best {
			best = ul.Seconds
		}
	}
	var cands []int
	for _, ul := range res.PerU {
		if ul.Seconds <= best*(1+tieEpsilon) {
			for ci, u := range td.Us {
				if u == ul.U {
					cands = append(cands, ci)
				}
			}
		}
	}
	return cands
}

func kernelCandidates(bl BinLabel) []int {
	best := math.Inf(1)
	for _, s := range bl.KernelTimes {
		if s < best {
			best = s
		}
	}
	var cands []int
	for kid, s := range bl.KernelTimes {
		if s <= best*(1+tieEpsilon) {
			cands = append(cands, kid)
		}
	}
	return cands
}

// Finalize builds the two datasets from the collected search results:
// one stage-1 sample per matrix (features -> canonical U) and one stage-2
// sample per (matrix, U, non-empty bin) (features+U+binID -> canonical
// kernel). Training stage 2 across all candidate U values — not just the
// winner — lets the model answer for whatever U stage 1 predicts at run
// time. It is idempotent.
func (td *TrainingData) Finalize() {
	if td.finalized {
		return
	}
	td.finalized = true

	// Pass 1: global popularity of each choice (candidate-set membership).
	uPop := make([]int, len(td.Us))
	kPop := make([]int, td.kernelSpace().Size())
	for _, r := range td.raw {
		for _, ci := range td.uCandidates(r.res) {
			uPop[ci]++
		}
		for _, ul := range r.res.PerU {
			for _, bl := range ul.Bins {
				for _, kid := range kernelCandidates(bl) {
					kPop[kid]++
				}
			}
		}
	}
	pickPopular := func(cands []int, pop []int) int {
		best := cands[0]
		for _, c := range cands[1:] {
			if pop[c] > pop[best] {
				best = c
			}
		}
		return best
	}

	// Pass 2: emit samples with canonical labels.
	for _, r := range td.raw {
		if cands := td.uCandidates(r.res); len(cands) > 0 {
			td.Stage1.Add(r.vec, pickPopular(cands, uPop))
		}
		for _, ul := range r.res.PerU {
			for _, bl := range ul.Bins {
				x := append(append([]float64{}, r.vec...), float64(ul.U), float64(bl.BinID), float64(bl.Rows), bl.AvgLen)
				td.Stage2.Add(x, pickPopular(kernelCandidates(bl), kPop))
			}
		}
	}
}

// Model is the trained two-stage predictor (the pair of rule-producing
// classifiers the paper trains with C5.0).
type Model struct {
	Us       []int
	MaxBins  int
	Extended bool // trained on the extended (histogram) feature vector
	// Space names the kernel space whose IDs the stage-2 classes index
	// ("" = the paper's pool, preserving pre-synthesis model hashes and
	// serialized form). Predictions are clamped to this space.
	Space  string
	Stage1 *c50.Tree
	Stage2 *c50.Tree
}

// KernelSpace resolves the model's kernel space, falling back to the pool
// for unknown names (a model is trusted provenance, not request input — a
// bad name means a hand-edited file, and the pool is the safe floor).
func (m *Model) KernelSpace() *kernels.Space {
	sp, err := kernels.SpaceByName(m.Space)
	if err != nil {
		return kernels.PoolSpace()
	}
	return sp
}

// TrainModel finalizes the collected samples and fits the two decision
// trees.
func TrainModel(td *TrainingData, cfg Config, opts c50.Options) *Model {
	td.Finalize()
	sp := td.space
	if sp == nil {
		// Literal TrainingData (train/test splits) carries no space; the
		// training config names it. A bad name would already have failed the
		// searches that produced the datasets, so ignore it here.
		sp, _ = cfg.Space()
	}
	return &Model{
		Us:       td.Us,
		MaxBins:  cfg.MaxBins,
		Extended: cfg.ExtendedFeatures,
		Space:    canonicalSpaceName(sp),
		Stage1:   c50.Train(td.Stage1, opts),
		Stage2:   c50.Train(td.Stage2, opts),
	}
}

// PredictUVec returns the granularity unit stage 1 selects for a feature
// vector produced by the training configuration's FeatureVector.
func (m *Model) PredictUVec(vec []float64) int {
	ci := m.Stage1.Predict(vec)
	if ci < 0 || ci >= len(m.Us) {
		return m.Us[0]
	}
	return m.Us[ci]
}

// PredictKernelVec returns the kernel ID stage 2 selects for a bin of
// binRows rows of average row length binAvgLen, under granularity u, given
// the matrix feature vector.
func (m *Model) PredictKernelVec(vec []float64, u, binID, binRows int, binAvgLen float64) int {
	x := append(append([]float64{}, vec...), float64(u), float64(binID), float64(binRows), binAvgLen)
	kid := m.Stage2.Predict(x)
	if _, ok := m.KernelSpace().ByID(kid); !ok {
		return 0
	}
	return kid
}

// PredictU is the Table I convenience form of PredictUVec; it panics on a
// model trained with extended features (those need the full matrix — use
// Framework.Decide or PredictUVec).
func (m *Model) PredictU(f features.F) int {
	if m.Extended {
		panic("core: PredictU(F) on an extended-features model; use PredictUVec")
	}
	return m.PredictUVec(f.Vector())
}

// PredictKernel is the Table I convenience form of PredictKernelVec; it
// panics on extended-features models.
func (m *Model) PredictKernel(f features.F, u, binID, binRows int, binAvgLen float64) int {
	if m.Extended {
		panic("core: PredictKernel(F) on an extended-features model; use PredictKernelVec")
	}
	return m.PredictKernelVec(f.Vector(), u, binID, binRows, binAvgLen)
}

// Errors evaluates both stages on held-out data, returning the error rates
// the paper reports (~5% stage 1, ~15% stage 2).
func (m *Model) Errors(test *TrainingData) (stage1, stage2 float64) {
	stage1, _ = c50.Evaluate(m.Stage1, test.Stage1)
	stage2, _ = c50.Evaluate(m.Stage2, test.Stage2)
	return stage1, stage2
}
