package retrain

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"spmvtune/internal/binning"
	"spmvtune/internal/c50"
	"spmvtune/internal/core"
	"spmvtune/internal/errdefs"
	"spmvtune/internal/hsa"
	"spmvtune/internal/matgen"
	"spmvtune/internal/plan"
	"spmvtune/internal/sparse"
)

func svcTestConfig() core.Config {
	return core.Config{
		Device:  hsa.DefaultConfig(),
		MaxBins: 32,
		Us:      []int{10, 50, 200, 1000},
	}
}

// searchRows replays one matrix's exhaustive search as production rows:
// one row per (U, bin, kernel) measurement. This is exactly the evidence a
// long-running daemon accumulates from traffic plus exploration, so a
// candidate trained on it should match offline training quality.
func searchRows(cfg core.Config, fp string, a *sparse.CSR) []Row {
	res := core.Search(cfg, a)
	feats := cfg.FeatureVector(a)
	var rows []Row
	for _, ul := range res.PerU {
		for _, bl := range ul.Bins {
			for kid, sec := range bl.KernelTimes {
				if sec <= 0 {
					continue
				}
				rows = append(rows, Row{
					Fingerprint: fp,
					Features:    feats,
					U:           ul.U,
					Bin:         bl.BinID,
					BinRows:     bl.Rows,
					BinAvgLen:   bl.AvgLen,
					Kernel:      kid,
					Cycles:      sec * 1e9,
					Seconds:     sec,
				})
			}
		}
	}
	return rows
}

// badIncumbent builds a deliberately poor but structurally valid model:
// stage 2 always picks the serial kernel, which is far from optimal on any
// non-trivial bin. The gate must find any reasonably trained candidate
// better than this.
func badIncumbent(cfg core.Config) *core.Model {
	td := core.NewTrainingData(cfg)
	s1 := td.Stage1
	s1.Add(make([]float64, len(cfg.FeatureNames())), 0)
	s1.Add(make([]float64, len(cfg.FeatureNames())), 1)
	s2 := td.Stage2
	s2.Add(make([]float64, len(cfg.FeatureNames())+4), 0)
	opts := c50.DefaultOptions()
	return &core.Model{
		Us:      cfg.Us,
		MaxBins: cfg.MaxBins,
		Stage1:  c50.Train(s1, opts),
		Stage2:  c50.Train(s2, opts),
	}
}

func TestServiceObserveIngestsAndExplores(t *testing.T) {
	cfg := svcTestConfig()
	fw := core.NewFramework(cfg, nil)
	store, err := OpenStore(StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(Config{
		Framework:   fw,
		Store:       store,
		Synchronous: true,
		ExploreRate: 1.0, // always explore: the counterfactual row is asserted
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}

	a := matgen.RoadNetwork(300, 5)
	obs := Observation{
		Fingerprint:  "fp-road",
		ModelVersion: "v-test",
		A:            a,
		Features:     cfg.FeatureVector(a),
		U:            50,
		MaxBins:      cfg.MaxBins,
		Scheme:       "coarse",
		Profiles: []plan.ExecProfile{
			{Bin: 0, U: 50, Kernel: 2, Rows: a.Rows, NNZ: int64(a.NNZ()), Cycles: 1e6, Seconds: 1e-3},
		},
	}
	svc.Observe(obs)

	rows, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("ingested %d rows, want 2 (observed + explored)", len(rows))
	}
	var explored *Row
	for i := range rows {
		if rows[i].Explore {
			explored = &rows[i]
		}
	}
	if explored == nil {
		t.Fatal("no exploration row despite ExploreRate 1.0")
	}
	if explored.Kernel == 2 {
		t.Fatal("exploration re-measured the observed kernel")
	}
	if explored.Cycles <= 0 || explored.Seconds <= 0 {
		t.Fatalf("exploration row has no simulated cost: %+v", explored)
	}
	st := svc.Stats()
	if st.Observations != 1 || st.ExploreRows != 1 || st.Rows != 2 {
		t.Fatalf("stats: %+v", st)
	}

	// Degraded, fallback and non-coarse observations carry failure-path
	// evidence and must be skipped, not learned from.
	for _, bad := range []Observation{
		func() Observation { o := obs; o.Degraded = true; return o }(),
		func() Observation { o := obs; o.Fallback = true; return o }(),
		func() Observation { o := obs; o.Scheme = "rows"; return o }(),
		func() Observation { o := obs; o.Profiles = nil; return o }(),
	} {
		svc.Observe(bad)
	}
	if got := svc.Stats().SkippedObs; got != 4 {
		t.Fatalf("SkippedObs = %d, want 4", got)
	}
	if store.Rows() != 2 {
		t.Fatal("unusable observations produced rows")
	}
}

func TestServiceQueueOverflowDropsAndDrainIngests(t *testing.T) {
	cfg := svcTestConfig()
	fw := core.NewFramework(cfg, nil)
	store, _ := OpenStore(StoreOptions{})
	svc, err := New(Config{Framework: fw, Store: store, QueueDepth: 2, ExploreRate: 0})
	if err != nil {
		t.Fatal(err)
	}
	a := matgen.Banded(200, 3, 9)
	obs := Observation{
		Fingerprint: "fp-band",
		A:           a,
		Features:    cfg.FeatureVector(a),
		U:           50,
		MaxBins:     cfg.MaxBins,
		Scheme:      "coarse",
		Profiles:    []plan.ExecProfile{{Bin: 0, U: 50, Kernel: 1, Rows: a.Rows, NNZ: 10, Cycles: 100, Seconds: 1e-6}},
	}
	for i := 0; i < 5; i++ {
		svc.Observe(obs)
	}
	if got := svc.Stats().DroppedObs; got != 3 {
		t.Fatalf("DroppedObs = %d, want 3 (depth 2)", got)
	}
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := store.Rows(); got != 2 {
		t.Fatalf("drained %d rows, want 2", got)
	}
}

// TestRetrainGate is the package-level promotion story: a candidate
// trained from good evidence gates in over a poor incumbent; a label-noise
// degraded candidate is rejected; retraining on unchanged evidence is a
// no-op.
func TestRetrainGate(t *testing.T) {
	cfg := svcTestConfig()
	store, err := OpenStore(StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []struct {
		fp string
		a  *sparse.CSR
	}{
		{"fp-road", matgen.RoadNetwork(240, 1)},
		{"fp-fem", matgen.BlockFEM(50, 60, 20, 2)},
		{"fp-mixed", matgen.Mixed(220, 220, 20, []int{2, 40}, 3)},
	} {
		if err := store.Append(searchRows(cfg, m.fp, m.a)...); err != nil {
			t.Fatal(err)
		}
	}

	incumbent := badIncumbent(cfg)
	fw := core.NewFramework(cfg, incumbent)
	holdout := []*sparse.CSR{
		matgen.RoadNetwork(300, 21),
		matgen.BlockFEM(40, 70, 25, 22),
		matgen.Banded(260, 5, 23),
	}
	var promoted []string
	svc, err := New(Config{
		Framework:   fw,
		Store:       store,
		Synchronous: true,
		MinRows:     16,
		Seed:        5,
		Holdout:     holdout,
		Promote: func(m *core.Model, version string) {
			promoted = append(promoted, version)
			fw.SwapModel(m)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	res, err := svc.RetrainOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != "promoted" {
		t.Fatalf("first pass: %q (%s), want promoted", res.Outcome, res.Reason)
	}
	if res.Candidate.GeoMean > res.Incumbent.GeoMean {
		t.Fatalf("promoted a worse candidate: %.4f vs %.4f", res.Candidate.GeoMean, res.Incumbent.GeoMean)
	}
	if len(promoted) != 1 || promoted[0] != res.Version {
		t.Fatalf("Promote callback saw %v, want [%s]", promoted, res.Version)
	}
	if fw.Model() == incumbent {
		t.Fatal("framework still serves the incumbent")
	}
	if core.ModelVersion(fw.Model()) != res.Version {
		t.Fatal("served model version does not match the promoted version")
	}
	if svc.Generation() != 1 {
		t.Fatalf("generation = %d, want 1", svc.Generation())
	}

	// Degrade training with full label noise: the gate must reject.
	svc.SetLabelNoise(1.0)
	res2, err := svc.RetrainOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Outcome != "rejected" {
		t.Fatalf("noisy pass: %q (%s), want rejected (cand %.4f inc %.4f version %s vs promoted %s)",
			res2.Outcome, res2.Reason, res2.Candidate.GeoMean, res2.Incumbent.GeoMean, res2.Version, res.Version)
	}
	if core.ModelVersion(fw.Model()) != res.Version {
		t.Fatal("rejected candidate reached the framework")
	}
	st := svc.Stats()
	if st.Rejected != 1 || st.Promotions != 1 {
		t.Fatalf("stats after rejection: %+v", st)
	}
	if !(st.LastCandidateRegret > st.LastIncumbentRegret) {
		t.Fatalf("noisy candidate regret %.4f not worse than incumbent %.4f",
			st.LastCandidateRegret, st.LastIncumbentRegret)
	}

	// Same evidence, no noise: the candidate hashes identical to the now-
	// incumbent promoted model and the pass is a no-op.
	svc.SetLabelNoise(0)
	res3, err := svc.RetrainOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Outcome != "unchanged" {
		t.Fatalf("replay pass: %q (%s), want unchanged", res3.Outcome, res3.Reason)
	}
	if svc.Generation() != 1 {
		t.Fatalf("generation moved on an unchanged pass: %d", svc.Generation())
	}
}

func TestRetrainSkipsBelowMinRows(t *testing.T) {
	cfg := svcTestConfig()
	fw := core.NewFramework(cfg, nil)
	store, _ := OpenStore(StoreOptions{})
	svc, err := New(Config{Framework: fw, Store: store, Synchronous: true, MinRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.RetrainOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != "skipped" {
		t.Fatalf("empty-store pass: %q, want skipped", res.Outcome)
	}
	if svc.Stats().Skipped != 1 {
		t.Fatalf("stats: %+v", svc.Stats())
	}
}

func TestRetrainHookFailureAndPanicContainment(t *testing.T) {
	cfg := svcTestConfig()
	fw := core.NewFramework(cfg, nil)
	store, _ := OpenStore(StoreOptions{})
	fail := errors.New("injected")
	mode := "error"
	svc, err := New(Config{
		Framework:   fw,
		Store:       store,
		Synchronous: true,
		TrainHook: func(ctx context.Context) error {
			switch mode {
			case "error":
				return fail
			case "panic":
				panic("injected train panic")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	if _, err := svc.RetrainOnce(ctx); !errors.Is(err, fail) {
		t.Fatalf("hook error not surfaced: %v", err)
	}
	mode = "panic"
	if _, err := svc.RetrainOnce(ctx); !errors.Is(err, errdefs.ErrPanic) {
		t.Fatalf("panic not contained as ErrPanic: %v", err)
	}
	if got := svc.Stats().Errors; got != 2 {
		t.Fatalf("Errors = %d, want 2", got)
	}
	// The pass lock must have been released by both failure paths.
	mode = "ok"
	if _, err := svc.RetrainOnce(ctx); err != nil {
		t.Fatalf("service wedged after contained failures: %v", err)
	}
}

func TestRetrainCanceledContext(t *testing.T) {
	cfg := svcTestConfig()
	fw := core.NewFramework(cfg, nil)
	store, _ := OpenStore(StoreOptions{})
	svc, err := New(Config{Framework: fw, Store: store, Synchronous: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.RetrainOnce(ctx); !errors.Is(err, errdefs.ErrCanceled) {
		t.Fatalf("canceled pass returned %v", err)
	}
}

// TestReplayedLaunchesObserveSameRows: the retrainer learns from the modeled
// cost in each ExecProfile, and a replayed launch reports the cost its
// simulated first launch did — so the rows ingested from a warm plan's
// traffic equal the rows from its cold first request.
func TestReplayedLaunchesObserveSameRows(t *testing.T) {
	cfg := svcTestConfig()
	fw := core.NewFramework(cfg, nil)
	a := matgen.Mixed(500, 500, 25, []int{2, 60}, 7)
	const u = 50
	p := &plan.TuningPlan{
		Fingerprint: plan.Fingerprint(a),
		Rows:        a.Rows, Cols: a.Cols, NNZ: a.NNZ(),
		Features: cfg.FeatureVector(a),
		U:        u, MaxBins: cfg.MaxBins, Scheme: "coarse",
	}
	b := binning.Coarse(a, u, cfg.MaxBins)
	for i, binID := range b.NonEmpty() {
		p.Bins = append(p.Bins, plan.BinAssignment{Bin: binID, Rows: b.NumRows(binID), Kernel: 1 + i%3})
	}

	v := make([]float64, a.Cols)
	for i := range v {
		v[i] = 1 + float64(i%5)
	}
	rowsOf := func(wantReplayed bool) []Row {
		t.Helper()
		rep, err := fw.ExecutePlanOpts(context.Background(), p, a, v, make([]float64, a.Rows), core.DefaultGuardOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, pr := range rep.Profiles {
			if pr.Replayed != wantReplayed {
				t.Fatalf("bin %d: replayed = %v, want %v", pr.Bin, pr.Replayed, wantReplayed)
			}
		}
		store, err := OpenStore(StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		svc, err := New(Config{Framework: fw, Store: store, Synchronous: true})
		if err != nil {
			t.Fatal(err)
		}
		svc.Observe(Observation{
			Fingerprint: p.Fingerprint, A: a, Features: p.Features,
			U: p.U, MaxBins: p.MaxBins, Scheme: p.Scheme,
			Degraded: rep.Degraded(), Profiles: rep.Profiles,
		})
		rows, err := store.Load()
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	simulated := rowsOf(false)
	replayed := rowsOf(true)
	if len(simulated) != len(p.Bins) {
		t.Fatalf("cold request produced %d rows, want one per bin (%d)", len(simulated), len(p.Bins))
	}
	if !reflect.DeepEqual(simulated, replayed) {
		t.Errorf("rows from replayed launches differ from simulated ones:\n %+v\n %+v", simulated, replayed)
	}
}
