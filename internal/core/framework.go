package core

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync/atomic"

	"spmvtune/internal/binning"
	"spmvtune/internal/c50"
	"spmvtune/internal/kernels"
	"spmvtune/internal/plancache"
	"spmvtune/internal/sparse"
	"spmvtune/internal/trace"
)

// Decision is the framework's chosen parallelization strategy for one
// matrix: the binning granularity and the kernel for every non-empty bin.
type Decision struct {
	U           int
	KernelByBin map[int]int
}

// String renders the decision compactly.
func (d Decision) String() string {
	bins := make([]int, 0, len(d.KernelByBin))
	for b := range d.KernelByBin {
		bins = append(bins, b)
	}
	sort.Ints(bins)
	s := fmt.Sprintf("U=%d:", d.U)
	for _, b := range bins {
		info, _ := kernels.ByID(d.KernelByBin[b])
		s += fmt.Sprintf(" bin%d->%s", b, info.Name)
	}
	return s
}

// Framework couples a trained model with a device configuration — the
// runtime side of Figure 3. The model lives behind an atomic pointer so a
// background retrainer can hot-swap a promoted model while requests are in
// flight: every decision loads the pointer exactly once and runs the whole
// predict path against that snapshot, so no request ever observes a torn
// mix of two models. The snapshot carries the model's ModelVersion, hashed
// once when the model is installed rather than on every plan.
//
// A Framework also owns the replay memo of plan execution (replay.go): a
// fresh Framework is cold and simulates every launch once.
type Framework struct {
	Cfg   Config
	model atomic.Pointer[installedModel]

	launches            *plancache.Memo[launchCost]
	simulated, replayed atomic.Int64
}

// installedModel is one model snapshot: the model and its ModelVersion.
type installedModel struct {
	m       *Model
	version string
}

func install(m *Model) *installedModel {
	return &installedModel{m: m, version: ModelVersion(m)}
}

// NewFramework builds a runtime framework around a trained model.
func NewFramework(cfg Config, m *Model) *Framework {
	fw := &Framework{Cfg: cfg, launches: plancache.NewMemo[launchCost](launchMemoCapacity, 16)}
	fw.model.Store(install(m))
	return fw
}

// installed loads the current snapshot; a Framework built without
// NewFramework has no model.
func (fw *Framework) installed() installedModel {
	if im := fw.model.Load(); im != nil {
		return *im
	}
	return installedModel{}
}

// Model returns the currently installed model (nil when none is set).
func (fw *Framework) Model() *Model {
	return fw.installed().m
}

// LaunchCounts reports how many launches of the guarded bin executor ran the
// device simulator and how many replayed a memoized launch's accounting.
func (fw *Framework) LaunchCounts() (simulated, replayed int64) {
	return fw.simulated.Load(), fw.replayed.Load()
}

// SwapModel atomically installs m as the live model and returns the
// previous one. In-flight decisions that already loaded the old pointer
// finish against it; new decisions see m. A nil m uninstalls the model
// (the predict path then degrades to the serial fallback plan).
func (fw *Framework) SwapModel(m *Model) *Model {
	if old := fw.model.Swap(install(m)); old != nil {
		return old.m
	}
	return nil
}

// Decide runs the predict path: extract features, stage 1 chooses U, the
// matrix is binned, and stage 2 chooses a kernel per non-empty bin.
func (fw *Framework) Decide(a *sparse.CSR) (Decision, *binning.Binning) {
	return fw.decideTraced(fw.Model(), a, nil, "")
}

// decideTraced is Decide with one trace span per predict phase (features →
// predict-u → bin → predict-kernel). The model snapshot is a parameter so
// callers that also record ModelVersion hash exactly the model that
// decided. A nil Writer emits nothing; the span attrs carry only
// deterministic values so deterministic traces stay byte-identical across
// runs.
func (fw *Framework) decideTraced(m *Model, a *sparse.CSR, tw *trace.Writer, traceID string) (Decision, *binning.Binning) {
	start := tw.Now()
	vec := fw.Cfg.FeatureVector(a)
	tw.Emit(traceID, "features", start, map[string]any{
		"count": len(vec), "rows": a.Rows, "cols": a.Cols, "nnz": a.NNZ()})

	start = tw.Now()
	u := m.PredictUVec(vec)
	tw.Emit(traceID, "predict-u", start, map[string]any{"u": u})

	start = tw.Now()
	b := binning.Coarse(a, u, fw.Cfg.MaxBins)
	tw.Emit(traceID, "bin", start, map[string]any{
		"u": u, "maxBins": fw.Cfg.MaxBins, "nonEmpty": len(b.NonEmpty())})

	start = tw.Now()
	d := Decision{U: u, KernelByBin: map[int]int{}}
	kernelNames := map[string]any{}
	for _, binID := range b.NonEmpty() {
		kid := m.PredictKernelVec(vec, u, binID,
			b.NumRows(binID), binAvgRowLen(a, b.Bins[binID]))
		d.KernelByBin[binID] = kid
		name := fmt.Sprintf("kernel#%d", kid)
		if info, ok := kernels.ByID(kid); ok {
			name = info.Name
		}
		kernelNames[fmt.Sprintf("bin%d", binID)] = name
	}
	tw.Emit(traceID, "predict-kernel", start, kernelNames)
	return d, b
}

// modelJSON is the serialized form of a trained model.
type modelJSON struct {
	Us       []int           `json:"us"`
	MaxBins  int             `json:"maxBins"`
	Extended bool            `json:"extended,omitempty"`
	Space    string          `json:"space,omitempty"` // "" = the paper's pool
	Stage1   json.RawMessage `json:"stage1"`
	Stage2   json.RawMessage `json:"stage2"`
}

// SaveModel writes the trained model to path as JSON.
func SaveModel(path string, m *Model) error {
	s1, err := json.Marshal(m.Stage1)
	if err != nil {
		return fmt.Errorf("core: marshal stage1: %w", err)
	}
	s2, err := json.Marshal(m.Stage2)
	if err != nil {
		return fmt.Errorf("core: marshal stage2: %w", err)
	}
	blob, err := json.MarshalIndent(modelJSON{Us: m.Us, MaxBins: m.MaxBins, Extended: m.Extended, Space: m.Space, Stage1: s1, Stage2: s2}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// LoadModel reads a model saved by SaveModel.
func LoadModel(path string) (*Model, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var mj modelJSON
	if err := json.Unmarshal(blob, &mj); err != nil {
		return nil, fmt.Errorf("core: parse model: %w", err)
	}
	if len(mj.Us) == 0 {
		return nil, fmt.Errorf("core: model has no candidate granularities")
	}
	if _, err := kernels.SpaceByName(mj.Space); err != nil {
		return nil, fmt.Errorf("core: parse model: %w", err)
	}
	m := &Model{Us: mj.Us, MaxBins: mj.MaxBins, Extended: mj.Extended, Space: mj.Space}
	m.Stage1 = new(c50.Tree)
	m.Stage2 = new(c50.Tree)
	if err := json.Unmarshal(mj.Stage1, m.Stage1); err != nil {
		return nil, fmt.Errorf("core: parse stage1: %w", err)
	}
	if err := json.Unmarshal(mj.Stage2, m.Stage2); err != nil {
		return nil, fmt.Errorf("core: parse stage2: %w", err)
	}
	return m, nil
}
