package core

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"spmvtune/internal/binning"
	"spmvtune/internal/c50"
	"spmvtune/internal/errdefs"
	"spmvtune/internal/matgen"
	"spmvtune/internal/plan"
	"spmvtune/internal/sparse"
)

func TestPlanExecuteRoundTrip(t *testing.T) {
	fw := guardFramework(t)
	a, v, want := guardMatrix()

	p, err := fw.Plan(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if p.Fingerprint != plan.Fingerprint(a) {
		t.Error("plan fingerprint does not match the matrix")
	}
	if p.ModelVersion == "" || p.ModelVersion != ModelVersion(fw.Model()) {
		t.Errorf("model version %q", p.ModelVersion)
	}
	if p.Rows != a.Rows || p.Cols != a.Cols || p.NNZ != a.NNZ() {
		t.Errorf("plan shape %dx%d/%d", p.Rows, p.Cols, p.NNZ)
	}
	if len(p.Features) == 0 || len(p.Features) != len(p.FeatureNames) {
		t.Errorf("features %d names %d", len(p.Features), len(p.FeatureNames))
	}
	if p.Fallback || len(p.Bins) == 0 {
		t.Fatalf("unexpected plan: %+v", p)
	}

	// The plan must reproduce exactly what Decide would choose.
	d, b := fw.Decide(a)
	if p.U != d.U || len(p.Bins) != len(b.NonEmpty()) {
		t.Errorf("plan U=%d bins=%d, decide U=%d bins=%d", p.U, len(p.Bins), d.U, len(b.NonEmpty()))
	}
	for _, ba := range p.Bins {
		if d.KernelByBin[ba.Bin] != ba.Kernel {
			t.Errorf("bin %d: plan kernel %d, decide kernel %d", ba.Bin, ba.Kernel, d.KernelByBin[ba.Bin])
		}
	}

	// Serialize, deserialize, execute: prediction and execution decoupled.
	blob, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := plan.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	u := make([]float64, a.Rows)
	rep, err := fw.ExecutePlanOpts(context.Background(), back, a, v, u, DefaultGuardOptions())
	if err != nil {
		t.Fatal(err)
	}
	if i := sparse.FirstVecDiff(want, u, 1e-9); i >= 0 {
		t.Errorf("plan execution wrong at row %d", i)
	}
	if rep.DecisionFallback {
		t.Error("fresh plan triggered decision fallback")
	}
	if rep.Decision.U != p.U {
		t.Errorf("report decision U=%d, plan U=%d", rep.Decision.U, p.U)
	}
}

func TestExecutePlanValidation(t *testing.T) {
	fw := guardFramework(t)
	a, v, _ := guardMatrix()
	u := make([]float64, a.Rows)

	if _, err := fw.ExecutePlanOpts(context.Background(), nil, a, v, u, DefaultGuardOptions()); !errors.Is(err, errdefs.ErrInvalidMatrix) {
		t.Errorf("nil plan: %v", err)
	}

	p, err := fw.Plan(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	wrong := matgen.Banded(a.Rows+1, 3, 1)
	wv := make([]float64, wrong.Cols)
	wu := make([]float64, wrong.Rows)
	if _, err := fw.ExecutePlanOpts(context.Background(), p, wrong, wv, wu, DefaultGuardOptions()); !errors.Is(err, errdefs.ErrInvalidMatrix) {
		t.Errorf("shape mismatch: %v", err)
	}
	if _, err := fw.ExecutePlanOpts(context.Background(), p, a, v[:1], u, DefaultGuardOptions()); !errors.Is(err, errdefs.ErrInvalidMatrix) {
		t.Errorf("short vector: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := fw.ExecutePlanOpts(ctx, p, a, v, u, DefaultGuardOptions()); !errors.Is(err, errdefs.ErrCanceled) {
		t.Errorf("canceled ctx: %v", err)
	}
	if _, err := fw.Plan(ctx, a); !errors.Is(err, errdefs.ErrCanceled) {
		t.Errorf("canceled plan: %v", err)
	}
}

func TestExecutePlanStaleDegradesNotFails(t *testing.T) {
	fw := guardFramework(t)
	a, v, want := guardMatrix()
	p, err := fw.Plan(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	// Strip the kernel assignments: the plan no longer covers the matrix's
	// non-empty bins — execution must degrade, not fail.
	stale := *p
	stale.Bins = nil
	u := make([]float64, a.Rows)
	rep, err := fw.ExecutePlanOpts(context.Background(), &stale, a, v, u, DefaultGuardOptions())
	if err != nil {
		t.Fatalf("stale plan failed instead of degrading: %v", err)
	}
	if !rep.DecisionFallback {
		t.Error("stale plan did not report decision fallback")
	}
	if i := sparse.FirstVecDiff(want, u, 1e-9); i >= 0 {
		t.Errorf("degraded execution wrong at row %d", i)
	}
}

// A decoded plan whose U is near math.MaxInt bins the whole matrix as one
// virtual row. The ceiling division used to overflow there, leaving a
// binning with no groups: no bin launched, and the call still succeeded
// with u untouched.
func TestHugeUPlanServesItsProduct(t *testing.T) {
	fw := guardFramework(t)
	a := matgen.Poisson2D(10)
	p, err := fw.Plan(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	p.Scheme, p.U, p.MaxBins = "coarse", math.MaxInt, 100
	blob, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dp, err := plan.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	v := make([]float64, a.Cols)
	for i := range v {
		v[i] = 1
	}
	want := make([]float64, a.Rows)
	a.MulVec(v, want)
	u := make([]float64, a.Rows)
	for i := range u {
		u[i] = 12345
	}
	if _, err := fw.ExecutePlanOpts(context.Background(), dp, a, v, u, DefaultGuardOptions()); err != nil {
		t.Fatal(err)
	}
	if i := sparse.FirstVecDiff(want, u, 1e-9); i >= 0 {
		t.Fatalf("u[%d] = %v, want %v", i, u[i], want[i])
	}
}

// Every plan Plan and SerialFallbackPlan write decodes, also under a
// configured bin cap above plan.Validate's max(DefaultMaxBins, NNZ+1): Plan
// records the bound instead, which bins the matrix identically.
func TestWrittenPlansMeetMaxBinsBound(t *testing.T) {
	base := guardFramework(t)
	cfg := base.Cfg
	cfg.MaxBins = 5000
	fw := NewFramework(cfg, base.Model())
	a := matgen.Poisson2D(10) // 460 non-zeros
	p, err := fw.Plan(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if p.Scheme != "coarse" || p.MaxBins != a.NNZ()+1 {
		t.Fatalf("%s plan with MaxBins %d, want coarse with NNZ+1 = %d", p.Scheme, p.MaxBins, a.NNZ()+1)
	}
	for _, wp := range []*plan.TuningPlan{p, SerialFallbackPlan(a, plan.Fingerprint(a))} {
		blob, err := wp.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := plan.Decode(blob); err != nil {
			t.Errorf("written %s plan rejected: %v", wp.Scheme, err)
		}
	}
	b, err := p.Rebin(a)
	if err != nil {
		t.Fatal(err)
	}
	want := binning.Coarse(a, p.U, cfg.MaxBins)
	if !reflect.DeepEqual(want.Bins[:p.MaxBins], b.Bins) || want.NonEmpty()[len(want.NonEmpty())-1] >= p.MaxBins {
		t.Fatal("the recorded cap bins the matrix differently from the configured one")
	}
}

func TestPlanFallbackOnBrokenModel(t *testing.T) {
	fw := NewFramework(testConfig(), nil) // nil model: predict path panics
	a, v, want := guardMatrix()
	p, err := fw.Plan(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Fallback || p.Scheme != "single" {
		t.Fatalf("broken model should yield a single/serial fallback plan, got %+v", p)
	}
	u := make([]float64, a.Rows)
	if _, err := fw.ExecutePlanOpts(context.Background(), p, a, v, u, DefaultGuardOptions()); err != nil {
		t.Fatal(err)
	}
	if i := sparse.FirstVecDiff(want, u, 1e-9); i >= 0 {
		t.Errorf("fallback plan execution wrong at row %d", i)
	}
}

// TestSaveLoadModelIdenticalPlans locks the model serialization contract
// end-to-end: a saved-and-reloaded model must produce byte-identical plans
// (same U, same kernel per bin, same version) across a matgen corpus.
func TestSaveLoadModelIdenticalPlans(t *testing.T) {
	cfg := testConfig()
	td := NewTrainingData(cfg)
	corpus := matgen.Corpus(matgen.CorpusOptions{N: 8, MinRows: 256, MaxRows: 768, Seed: 23})
	for _, cm := range corpus {
		td.AddMatrix(cfg, cm.A)
	}
	m := TrainModel(td, cfg, c50.DefaultOptions())

	path := filepath.Join(t.TempDir(), "model.json")
	if err := SaveModel(path, m); err != nil {
		t.Fatal(err)
	}
	back, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if ModelVersion(m) != ModelVersion(back) {
		t.Error("model version changed across save/load")
	}

	fw1 := NewFramework(cfg, m)
	fw2 := NewFramework(cfg, back)
	for i, cm := range corpus {
		p1, err := fw1.Plan(context.Background(), cm.A)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := fw2.Plan(context.Background(), cm.A)
		if err != nil {
			t.Fatal(err)
		}
		if p1.U != p2.U {
			t.Errorf("corpus %d: U %d vs %d after round trip", i, p1.U, p2.U)
		}
		if len(p1.Bins) != len(p2.Bins) {
			t.Fatalf("corpus %d: bin count %d vs %d", i, len(p1.Bins), len(p2.Bins))
		}
		for j := range p1.Bins {
			if p1.Bins[j] != p2.Bins[j] {
				t.Errorf("corpus %d bin %d: %+v vs %+v", i, j, p1.Bins[j], p2.Bins[j])
			}
		}
	}
}

// TestPlanCarriesInstalledModelVersion: a plan records the version of the
// model snapshot it was decided with, hashed when that model was installed;
// plans made before and after a SwapModel each carry their own model's.
func TestPlanCarriesInstalledModelVersion(t *testing.T) {
	fw := guardFramework(t)
	a, _, _ := guardMatrix()
	cfg := testConfig()
	td := NewTrainingData(cfg)
	td.AddMatrix(cfg, matgen.RoadNetwork(400, 7))
	m1, m2 := fw.Model(), TrainModel(td, cfg, c50.DefaultOptions())
	v1, v2 := ModelVersion(m1), ModelVersion(m2)
	if v1 == "" || v1 == v2 {
		t.Fatalf("models not distinguishable: %q, %q", v1, v2)
	}
	version := func() string {
		t.Helper()
		p, err := fw.Plan(context.Background(), a)
		if err != nil {
			t.Fatal(err)
		}
		return p.ModelVersion
	}
	if got := version(); got != v1 {
		t.Errorf("before the swap: version %q, want %q", got, v1)
	}
	if old := fw.SwapModel(m2); old != m1 {
		t.Errorf("SwapModel returned %p, want the first model %p", old, m1)
	}
	if got := version(); got != v2 {
		t.Errorf("after the swap: version %q, want %q", got, v2)
	}
	if old := fw.SwapModel(nil); old != m2 {
		t.Errorf("SwapModel(nil) returned %p, want the second model %p", old, m2)
	}
	if got := version(); got != "" {
		t.Errorf("with no model: version %q, want empty", got)
	}
}

// TestPlanTracedTakesFingerprint: a fingerprint handed to PlanTraced is
// the one the plan carries (a server's stored key, not hashed again), and
// the plan is otherwise Plan's own; an invalid matrix is still refused.
func TestPlanTracedTakesFingerprint(t *testing.T) {
	fw := guardFramework(t)
	a, _, _ := guardMatrix()
	ctx := context.Background()
	want, err := fw.Plan(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fw.PlanTraced(ctx, a, want.Fingerprint, nil, "")
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("PlanTraced with the fingerprint = %+v, %v; Plan = %+v", got, err, want)
	}
	if p, _ := fw.PlanTraced(ctx, a, "stored-key", nil, ""); p == nil || p.Fingerprint != "stored-key" {
		t.Errorf("PlanTraced did not record the fingerprint it was given: %+v", p)
	}
	bad := a.Clone()
	bad.RowPtr[1] = -1
	if _, err := fw.PlanTraced(ctx, bad, want.Fingerprint, nil, ""); err == nil {
		t.Error("PlanTraced with a fingerprint skipped validating the matrix")
	}
}

// TestPlanAllocs bounds a plan's allocations. Plan makes 45 on this
// matrix and model; hashing the model's trees on every plan, before the
// version was computed at install, made it 58.
func TestPlanAllocs(t *testing.T) {
	fw := guardFramework(t)
	a, _, _ := guardMatrix()
	ctx := context.Background()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := fw.Plan(ctx, a); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 48
	if allocs > ceiling {
		t.Errorf("Plan allocates %v times, want <= %d", allocs, ceiling)
	}
}
