// Package experiments regenerates every table and figure of the paper's
// evaluation (Section IV) on the simulated device and synthetic matrix
// recipes; see DESIGN.md's per-experiment index. Each experiment returns a
// typed result and renders the same rows/series the paper reports, so
// paper-vs-measured shapes can be recorded in EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"spmvtune/internal/binning"
	"spmvtune/internal/c50"
	"spmvtune/internal/core"
	"spmvtune/internal/hsa"
	"spmvtune/internal/kernels"
	"spmvtune/internal/matgen"
	"spmvtune/internal/sparse"
)

// Options configures an experiment run.
type Options struct {
	Out     io.Writer
	Dev     hsa.Config
	Scale   int   // representative-matrix scale divisor (1 = paper size)
	CorpusN int   // training corpus size
	MinRows int   // smallest corpus matrix (default 512)
	MaxRows int   // largest corpus matrix (default 4096)
	Seed    int64 // corpus / vector seed

	// Model caches the trained two-stage model across experiments.
	Model *core.Model
}

// Defaults fills unset fields: scale 64, corpus 120, Kaveri device.
func (o *Options) Defaults() {
	if o.Out == nil {
		o.Out = io.Discard
	}
	if o.Dev.NumCUs == 0 {
		o.Dev = hsa.DefaultConfig()
	}
	if o.Scale <= 0 {
		o.Scale = 64
	}
	if o.CorpusN <= 0 {
		o.CorpusN = 120
	}
	if o.MinRows <= 0 {
		o.MinRows = 512
	}
	if o.MaxRows <= 0 {
		o.MaxRows = 4096
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
}

func (o *Options) config() core.Config {
	return core.Config{Device: o.Dev, MaxBins: binning.DefaultMaxBins, Us: binning.Granularities()}
}

func randVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// EnsureModel trains (or reuses) the two-stage model used by the Figure 6,
// 7 and ML-error experiments, returning the held-out error report.
func (o *Options) EnsureModel() (*core.Model, TrainStats, error) {
	o.Defaults()
	if o.Model != nil {
		return o.Model, TrainStats{}, nil
	}
	cfg := o.config()
	corpus := matgen.ValueFreeCorpus(matgen.CorpusOptions{
		N: o.CorpusN, MinRows: o.MinRows, MaxRows: o.MaxRows, Seed: o.Seed,
	})
	td := core.NewTrainingData(cfg)
	start := time.Now()
	td.AddMatrices(cfg, matgen.Matrices(corpus))
	fmt.Fprintf(o.Out, "# labeled %d corpus matrices (%.1fs)\n", len(corpus), time.Since(start).Seconds())
	td.Finalize()
	tr1, te1 := td.Stage1.Split(0.75, o.Seed)
	tr2, te2 := td.Stage2.Split(0.75, o.Seed)
	m := &core.Model{Us: cfg.Us, MaxBins: cfg.MaxBins,
		Stage1: c50.Train(tr1, c50.DefaultOptions()),
		Stage2: c50.Train(tr2, c50.DefaultOptions())}
	ts := TrainStats{Corpus: len(corpus), Stage1Samples: td.Stage1.Len(), Stage2Samples: td.Stage2.Len(),
		LabelSeconds: time.Since(start).Seconds()}
	ts.Stage1Error, _ = c50.Evaluate(m.Stage1, te1)
	ts.Stage2Error, _ = c50.Evaluate(m.Stage2, te2)
	o.Model = m
	return m, ts, nil
}

// TrainStats reports the offline training outcome (Section III-C: ~5%
// stage-1 error, up to ~15% stage-2 error in the paper).
type TrainStats struct {
	Corpus        int
	Stage1Samples int
	Stage2Samples int
	Stage1Error   float64
	Stage2Error   float64
	LabelSeconds  float64
}

// representative builds the 16 Table II matrices at the configured scale.
func (o *Options) representative() []struct {
	Name string
	Kind string
	A    *sparse.CSR
} {
	reps := matgen.Representative()
	out := make([]struct {
		Name string
		Kind string
		A    *sparse.CSR
	}, len(reps))
	for i, r := range reps {
		out[i].Name = r.Name
		out[i].Kind = r.Kind
		out[i].A = r.Gen(o.Scale)
	}
	return out
}

// fig2Kernels is the five-kernel subset shown in the paper's Figure 2.
func fig2Kernels() []kernels.Info {
	var out []kernels.Info
	for _, name := range []string{"serial", "subvector4", "subvector16", "subvector64", "vector"} {
		info, _ := kernels.ByName(name)
		out = append(out, info)
	}
	return out
}

// runAuto is the auto-tuned product every figure times: plan, then execute
// the plan. The guarded executor verifies u against the reference; since
// experiments are also correctness tests, a run that needed its fallback
// chain is an error here rather than a degraded success.
func runAuto(fw *core.Framework, a *sparse.CSR, v, u []float64) (core.Decision, hsa.Stats, error) {
	ctx := context.Background()
	p, err := fw.Plan(ctx, a)
	if err != nil {
		return core.Decision{}, hsa.Stats{}, err
	}
	rep, err := fw.ExecutePlanOpts(ctx, p, a, v, u, core.DefaultGuardOptions())
	if err == nil && rep.Degraded() {
		err = fmt.Errorf("experiments: auto-tuned run degraded: %v", rep)
	}
	return rep.Decision, rep.Stats, err
}

// verifyAgainstReference checks an unguarded simulated result vector;
// experiments are also correctness tests.
func verifyAgainstReference(a *sparse.CSR, v, got []float64) error {
	want := make([]float64, a.Rows)
	a.MulVec(v, want)
	if i := sparse.FirstVecDiff(want, got, 1e-6); i >= 0 {
		return fmt.Errorf("experiments: result mismatch at row %d: got %g want %g", i, got[i], want[i])
	}
	return nil
}
