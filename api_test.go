package spmvtune_test

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"spmvtune"
)

// apiConfig shrinks the public-API pipeline for test speed.
func apiTrainOptions() spmvtune.TrainOptions {
	opts := spmvtune.DefaultTrainOptions()
	opts.CorpusSize = 12
	opts.MinRows, opts.MaxRows = 256, 768
	return opts
}

func TestPublicAPITrainRunVerify(t *testing.T) {
	cfg := spmvtune.DefaultConfig()
	model, report, err := spmvtune.TrainPipeline(cfg, apiTrainOptions())
	if err != nil {
		t.Fatal(err)
	}
	if report.Corpus != 12 || report.Stage1Train == 0 || report.Stage2Train == 0 {
		t.Fatalf("report: %+v", report)
	}
	fw := spmvtune.NewFramework(cfg, model)

	a := spmvtune.GenMixed(3000, 3000, 64, []int{2, 120}, 77)
	v := make([]float64, a.Cols)
	for i := range v {
		v[i] = float64(i % 5)
	}
	u := make([]float64, a.Rows)
	decision, stats, err := spmvtune.RunSim(fw, a, v, u)
	if err != nil {
		t.Fatal(err)
	}
	if decision.U == 0 || len(decision.KernelByBin) == 0 {
		t.Errorf("empty decision: %v", decision)
	}
	if stats.Seconds <= 0 {
		t.Error("no simulated time")
	}
	want := make([]float64, a.Rows)
	spmvtune.Reference(a, v, want)
	if !spmvtune.VecApproxEqual(want, u, 1e-9) {
		t.Error("simulated result differs from reference")
	}

	uc := make([]float64, a.Rows)
	cpuDecision, mul := spmvtune.PrepareCPU(fw, a, 0)
	mul(v, uc)
	if cpuDecision.String() != decision.String() {
		t.Errorf("PrepareCPU decided %v, RunSim decided %v", cpuDecision, decision)
	}
	if !spmvtune.VecApproxEqual(want, uc, 1e-9) {
		t.Error("CPU result differs from reference")
	}
}

func TestPublicAPIBaselines(t *testing.T) {
	cfg := spmvtune.DefaultConfig()
	a := spmvtune.GenRoadNetwork(2000, 5)
	v := make([]float64, a.Cols)
	u := make([]float64, a.Rows)
	for _, k := range spmvtune.KernelNames() {
		st, err := spmvtune.RunSingleKernelSim(cfg.Device, a, v, u, k)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if st.Seconds <= 0 {
			t.Errorf("%s: no time", k)
		}
	}
	if _, err := spmvtune.RunSingleKernelSim(cfg.Device, a, v, u, "bogus"); err == nil {
		t.Error("unknown kernel accepted")
	}
	st := spmvtune.RunCSRAdaptiveSim(cfg.Device, a, v, u, 0)
	if st.Seconds <= 0 {
		t.Error("CSR-Adaptive: no time")
	}
}

func TestPublicAPIBinningAndFeatures(t *testing.T) {
	a := spmvtune.GenBanded(500, 5, 9)
	f := spmvtune.Extract(a)
	if f.M != 500 || f.AvgNNZ < 4 || f.AvgNNZ > 5 {
		t.Errorf("features: %+v", f)
	}
	if len(spmvtune.FeatureNames()) != 7 {
		t.Error("Table I has seven parameters")
	}
	if len(spmvtune.KernelNames()) != 9 {
		t.Error("pool has nine kernels")
	}
	us := spmvtune.Granularities()
	if us[0] != 10 {
		t.Error("granularities should start at 10")
	}
	b := spmvtune.CoarseBin(a, 10, 100)
	if b.TotalRows() != 500 {
		t.Error("coarse binning lost rows")
	}
	s := spmvtune.SingleBin(a)
	if len(s.NonEmpty()) != 1 {
		t.Error("single bin layout wrong")
	}
}

func TestPublicAPIMatrixMarketAndModelIO(t *testing.T) {
	dir := t.TempDir()
	a := spmvtune.GenPowerLaw(300, 4, 1.9, 100, 3)
	mtx := filepath.Join(dir, "a.mtx")
	if err := spmvtune.WriteMatrixMarket(mtx, a, "api test"); err != nil {
		t.Fatal(err)
	}
	back, err := spmvtune.ReadMatrixMarket(mtx)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != a.NNZ() || back.Rows != a.Rows {
		t.Error("matrix market round trip changed shape")
	}

	cfg := spmvtune.DefaultConfig()
	model, _, err := spmvtune.TrainPipeline(cfg, apiTrainOptions())
	if err != nil {
		t.Fatal(err)
	}
	mp := filepath.Join(dir, "model.json")
	if err := spmvtune.SaveModel(mp, model); err != nil {
		t.Fatal(err)
	}
	loaded, err := spmvtune.LoadModel(mp)
	if err != nil {
		t.Fatal(err)
	}
	f := spmvtune.Extract(a)
	if model.PredictU(f) != loaded.PredictU(f) {
		t.Error("loaded model predicts differently")
	}
}

func TestPublicAPIGenerators(t *testing.T) {
	gens := map[string]*spmvtune.Matrix{
		"banded":    spmvtune.GenBanded(100, 3, 1),
		"road":      spmvtune.GenRoadNetwork(100, 2),
		"powerlaw":  spmvtune.GenPowerLaw(100, 3, 1.8, 50, 3),
		"blockfem":  spmvtune.GenBlockFEM(50, 20, 5, 4),
		"bipartite": spmvtune.GenBipartite(100, 40, 3, 5),
		"mixed":     spmvtune.GenMixed(100, 100, 10, []int{1, 9}, 6),
	}
	for name, a := range gens {
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if a.NNZ() == 0 {
			t.Errorf("%s: empty", name)
		}
	}
}

// TestPublicAPIServing locks the serving surface: plans, the plan cache,
// and the HTTP server are all reachable without importing internal packages.
func TestPublicAPIServing(t *testing.T) {
	cfg := spmvtune.DefaultConfig()
	model, _, err := spmvtune.TrainPipeline(cfg, apiTrainOptions())
	if err != nil {
		t.Fatal(err)
	}
	fw := spmvtune.NewFramework(cfg, model)
	if v := spmvtune.ModelVersion(model); v == "" {
		t.Error("empty model version")
	}

	a := spmvtune.GenRoadNetwork(800, 11)
	fp := spmvtune.PlanFingerprint(a)
	if len(fp) != 32 {
		t.Fatalf("fingerprint %q not 32 hex chars", fp)
	}

	// Plan / ExecutePlanOpts round trip through JSON, verified against Reference.
	p, err := fw.Plan(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if p.Fingerprint != fp {
		t.Error("plan fingerprint disagrees with PlanFingerprint")
	}
	blob, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var back *spmvtune.TuningPlan
	back, err = spmvtune.DecodePlan(blob)
	if err != nil {
		t.Fatal(err)
	}
	v := make([]float64, a.Cols)
	for i := range v {
		v[i] = float64(i%7) - 3
	}
	u := make([]float64, a.Rows)
	rep, err := fw.ExecutePlanOpts(context.Background(), back, a, v, u, spmvtune.DefaultGuardOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.DecisionFallback {
		t.Error("fresh plan should not need the decision fallback")
	}
	want := make([]float64, a.Rows)
	spmvtune.Reference(a, v, want)
	if !spmvtune.VecApproxEqual(want, u, 1e-9) {
		t.Error("plan execution differs from reference")
	}

	// Plan cache: second fetch is a hit.
	pc := spmvtune.NewPlanCache(spmvtune.PlanCacheOptions{Capacity: 4})
	for i := 0; i < 2; i++ {
		_, hit, err := pc.GetOrCompute(context.Background(), fp, func(ctx context.Context) (*spmvtune.TuningPlan, error) {
			return fw.Plan(ctx, a)
		})
		if err != nil {
			t.Fatal(err)
		}
		if hit != (i == 1) {
			t.Errorf("fetch %d: hit = %v", i, hit)
		}
	}
	var st spmvtune.PlanCacheStats = pc.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("cache stats: %+v", st)
	}

	// The HTTP server mounts as a plain handler.
	srv, err := spmvtune.NewServer(spmvtune.ServerConfig{Framework: fw})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Errorf("healthz = %d", rec.Code)
	}
	if _, err := spmvtune.NewServer(spmvtune.ServerConfig{}); err == nil {
		t.Error("server without framework accepted")
	}
}

func TestPublicAPITrainPipelineErrors(t *testing.T) {
	cfg := spmvtune.DefaultConfig()
	bad := apiTrainOptions()
	bad.CorpusSize = 0
	if _, _, err := spmvtune.TrainPipeline(cfg, bad); err == nil {
		t.Error("zero corpus accepted")
	}
	for _, rows := range [][2]int{{-1, 768}, {-8, -4}, {768, 256}} {
		bad = apiTrainOptions()
		bad.MinRows, bad.MaxRows = rows[0], rows[1]
		if _, _, err := spmvtune.TrainPipeline(cfg, bad); err == nil {
			t.Errorf("corpus rows [%d, %d] accepted", rows[0], rows[1])
		}
	}
}

// TestTrainPipelineZeroBoundsTakeDefaults: zero corpus row bounds select the
// default corpus's bounds instead of generating empty matrices, so they
// train exactly the model the explicit defaults train.
func TestTrainPipelineZeroBoundsTakeDefaults(t *testing.T) {
	cfg := spmvtune.DefaultConfig()
	explicit := spmvtune.DefaultTrainOptions()
	explicit.CorpusSize = 4
	zero := explicit
	zero.MinRows, zero.MaxRows = 0, 0
	var versions []string
	for _, opts := range []spmvtune.TrainOptions{explicit, zero} {
		m, _, err := spmvtune.TrainPipeline(cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		versions = append(versions, spmvtune.ModelVersion(m))
	}
	if versions[0] != versions[1] {
		t.Errorf("zero bounds trained model %s, explicit defaults %s", versions[1], versions[0])
	}
}
