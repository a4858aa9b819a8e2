package chaos_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spmvtune/internal/c50"
	"spmvtune/internal/chaos"
	"spmvtune/internal/core"
	"spmvtune/internal/errdefs"
	"spmvtune/internal/hsa"
	"spmvtune/internal/matgen"
	"spmvtune/internal/mmio"
	"spmvtune/internal/plancache"
	"spmvtune/internal/retrain"
	"spmvtune/internal/server"
	"spmvtune/internal/sparse"
)

// TestChaosRetrainStorm extends the storm to the online learning loop:
// SpMV traffic feeds training rows through a chaotic filesystem while
// retrain passes — themselves hit with injected errors, latency and panics
// via TrainHook — race the traffic and hot-swap the model mid-flight.
// Invariants:
//
//  1. no injected panic escapes: retrain panics come back as classed
//     errors, never a dead process;
//  2. the regret gate is never bypassed — after any number of chaotic
//     promotions, the served model's held-out regret is bounded by the
//     initial incumbent's regret compounded by the slack per promotion;
//  3. the retrain counters stay consistent with each other and with the
//     /metrics exposition (every run is accounted to exactly one outcome);
//  4. the row store survives its filesystem faults: whatever sealed is
//     loadable, with corruption skipped rather than fatal.
func TestChaosRetrainStorm(t *testing.T) {
	cfg := core.Config{Device: hsa.DefaultConfig(), MaxBins: 32, Us: []int{10, 50, 200, 1000}}
	td := core.NewTrainingData(cfg)
	td.AddMatrix(cfg, matgen.RoadNetwork(600, 1))
	td.AddMatrix(cfg, matgen.BlockFEM(80, 150, 30, 2))
	good := core.TrainModel(td, cfg, c50.DefaultOptions())
	// The incumbent has a competent stage 1 but always picks the serial
	// kernel: valid, poor, and beatable — so promotions really happen
	// during the storm.
	serial := core.NewTrainingData(cfg)
	serial.Stage2.Add(make([]float64, len(cfg.FeatureNames())+4), 0)
	incumbent := &core.Model{
		Us:      cfg.Us,
		MaxBins: cfg.MaxBins,
		Stage1:  good.Stage1,
		Stage2:  c50.Train(serial.Stage2, c50.DefaultOptions()),
	}
	fw := core.NewFramework(cfg, incumbent)

	holdout := []*sparse.CSR{
		matgen.RoadNetwork(300, 21),
		matgen.BlockFEM(40, 70, 25, 22),
		matgen.Banded(260, 5, 23),
	}
	const slack = 0.01
	baseline := core.EvaluateRegret(cfg, incumbent, holdout)

	inj := chaos.New(chaos.Config{
		Seed:         4242,
		ShortWrite:   0.15,
		BitFlip:      0.15,
		DiskFull:     0.15,
		RenameFail:   0.15,
		TuneDelay:    0.20,
		Delay:        time.Millisecond,
		TuneError:    0.25,
		TunePanic:    0.10,
		ExecPanic:    0.05,
		DeviceFaults: 0.20,
	})
	store, err := retrain.OpenStore(retrain.StoreOptions{
		Dir:         t.TempDir(),
		FS:          inj.FS(plancache.OSFS()),
		SegmentRows: 8, // seal often so the chaotic FS gets many shots
	})
	if err != nil {
		t.Fatal(err)
	}
	// Retrain passes share the injector's fault stream while the storm is
	// armed; the post-storm verification passes run fault-free.
	var armed atomic.Bool
	armed.Store(true)
	trainHook := func(ctx context.Context) error {
		if !armed.Load() {
			return nil
		}
		return inj.TuneHook(ctx)
	}
	svc, err := retrain.New(retrain.Config{
		Framework:   fw,
		Store:       store,
		Synchronous: true,
		ExploreRate: 0.5,
		MinRows:     10,
		Seed:        5,
		Holdout:     holdout,
		RegretSlack: slack,
		TrainHook:   trainHook,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.New(server.Config{
		Framework: fw,
		Retrain:   svc,
		Cache:     plancache.Options{Dir: t.TempDir(), FS: inj.FS(plancache.OSFS())},
		Breaker:   server.BreakerConfig{Threshold: 2, Cooldown: 50 * time.Millisecond},
		TuneHook:  inj.TuneHook,
		ExecHook:  inj.ExecHook,
		FaultHook: inj.FaultPlan,
	})
	if err != nil {
		t.Fatal(err)
	}
	do := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}

	mats := []*sparse.CSR{
		matgen.Banded(140, 3, 61),
		matgen.RoadNetwork(220, 62),
		matgen.Mixed(160, 160, 12, []int{2, 40}, 63),
	}
	ids := make([]string, len(mats))
	for i, a := range mats {
		var buf bytes.Buffer
		if err := mmio.Write(&buf, a); err != nil {
			t.Fatal(err)
		}
		rec := do("POST", "/v1/matrices", buf.String())
		if rec.Code != 201 {
			t.Fatalf("upload %d status %d: %s", i, rec.Code, rec.Body)
		}
		var out struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		ids[i] = out.ID
	}

	// Traffic and retraining race: four request workers, plus a retrain
	// loop on this goroutine alternating clean and label-noise-poisoned
	// passes. Everything joins before any assertion.
	const workers, perWorker = 4, 15
	var wg sync.WaitGroup
	trafficDone := make(chan struct{})
	completed := make(chan struct{}, workers*perWorker) // one token per finished request
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := (w + i) % len(mats)
				a := mats[k]
				v := make([]float64, a.Cols)
				for j := range v {
					v[j] = 1
				}
				vecJSON, _ := json.Marshal(v)
				rec := do("POST", "/v1/spmv", fmt.Sprintf(`{"matrix":%q,"vector":%s}`, ids[k], vecJSON))
				completed <- struct{}{}
				if rec.Code == 200 {
					continue
				}
				var out struct {
					Error string `json:"error"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
					t.Errorf("worker %d req %d: status %d body not JSON: %s", w, i, rec.Code, rec.Body)
					return
				}
				if _, known := classStatus[out.Error]; !known {
					t.Errorf("worker %d req %d: unknown error class %q", w, i, out.Error)
					return
				}
			}
		}(w)
	}
	go func() {
		wg.Wait()
		close(trafficDone)
	}()
	const passes = 8
	outcomes := make([]string, 0, passes)
	seen := 0
	for r := 0; r < passes; r++ {
		// Pace against the traffic: a skip is instant, so an unpaced loop
		// would burn every pass before the first rows land. Pass r waits
		// for its share of the requests to complete — a count, not a
		// clock. The service is Synchronous, so a completed request's
		// evidence is already ingested: nothing is left queued. Once
		// traffic drains, remaining passes run back to back.
	pace:
		for ; seen < (r+1)*workers*perWorker/passes; seen++ {
			select {
			case <-completed:
			case <-trafficDone:
				break pace
			}
		}
		svc.SetLabelNoise(float64(r % 2)) // odd passes train on poisoned labels
		res, err := svc.RetrainOnce(context.Background())
		if err != nil {
			// Invariant 1: a chaotic pass may fail, but only with a
			// classed, contained error — injected panics and transient
			// tuning faults, never anything unclassified.
			if !errors.Is(err, errdefs.ErrPanic) && !errors.Is(err, errdefs.ErrUnavailable) {
				t.Errorf("retrain pass %d: unclassified error %v", r, err)
			}
			outcomes = append(outcomes, "error")
			continue
		}
		outcomes = append(outcomes, res.Outcome)
	}
	<-trafficDone
	t.Logf("passes: %v; injected %+v", outcomes, inj.Stats())
	if inj.Stats().Total() == 0 {
		t.Fatal("storm injected nothing; the test is not testing anything")
	}

	// Storm over: disarm the fault hook and verify the loop still obeys its
	// gate. Storm-era rows are polluted (requests served by
	// chaotically-promoted models observe whatever kernels those models
	// chose), so first replay oracle evidence — exhaustive-search timings
	// for the traffic matrices. Which chaotically promoted model is incumbent
	// by now depends on the scheduler, and a clean candidate may legitimately
	// lose to it by more than the slack: the invariant is not an outcome
	// string but that the framework serves exactly what the gate decided. A
	// poisoned pass against that incumbent must then be rejected without
	// moving the generation.
	armed.Store(false)
	for i, a := range mats {
		if err := store.Append(searchRows(cfg, ids[i], a)...); err != nil {
			t.Fatal(err)
		}
	}
	svc.SetLabelNoise(0)
	before, genBefore := fw.Model(), svc.Stats().Generation
	res, err := svc.RetrainOnce(context.Background())
	if err != nil {
		t.Fatalf("post-storm clean pass: %v", err)
	}
	switch res.Outcome {
	case "promoted":
		if got := core.ModelVersion(fw.Model()); got != res.Version {
			t.Fatalf("framework serves %q after promotion of %q", got, res.Version)
		}
	case "rejected", "unchanged":
		if got := svc.Stats().Generation; got != genBefore || fw.Model() != before {
			t.Fatalf("post-storm clean pass %s (%s) but the served model moved: generation %d -> %d",
				res.Outcome, res.Reason, genBefore, got)
		}
	default:
		t.Fatalf("post-storm clean pass outcome %q (%s), want promoted, rejected or unchanged", res.Outcome, res.Reason)
	}
	genBefore = svc.Stats().Generation
	svc.SetLabelNoise(1)
	res2, err := svc.RetrainOnce(context.Background())
	if err != nil {
		t.Fatalf("post-storm poisoned pass: %v", err)
	}
	if res2.Outcome != "rejected" {
		t.Fatalf("poisoned pass outcome %q (%s), want rejected", res2.Outcome, res2.Reason)
	}
	if got := svc.Stats().Generation; got != genBefore {
		t.Fatalf("rejected candidate moved the generation: %d -> %d", genBefore, got)
	}

	// Invariant 2: the regret gate held. Each promotion admits at most a
	// (1+slack) regression against the then-incumbent on this exact
	// holdout, so the served model is bounded by the initial incumbent
	// compounded per promotion.
	st := svc.Stats()
	final := core.EvaluateRegret(cfg, fw.Model(), holdout)
	bound := baseline.GeoMean * math.Pow(1+slack, float64(st.Promotions))
	if final.GeoMean > bound*(1+1e-9) {
		t.Errorf("regret gate bypassed: served model geomean %.4f > bound %.4f (baseline %.4f, %d promotions)",
			final.GeoMean, bound, baseline.GeoMean, st.Promotions)
	}

	// Invariant 3: every pass landed in exactly one outcome bucket, and
	// /metrics agrees with the service's own counters.
	if st.Runs != passes+2 { // storm passes plus the two verification passes
		t.Errorf("runs %d, want %d", st.Runs, passes+2)
	}
	if got := st.Promotions + st.Rejected + st.Unchanged + st.Skipped + st.Errors; got != st.Runs {
		t.Errorf("outcome buckets sum to %d, want runs %d (%+v)", got, st.Runs, st)
	}
	if st.Generation != st.Promotions {
		t.Errorf("generation %d, want promotions %d", st.Generation, st.Promotions)
	}
	rec := do("GET", "/metrics", "")
	if rec.Code != 200 {
		t.Fatalf("metrics after storm: %d", rec.Code)
	}
	for metric, want := range map[string]int64{
		"spmvd_model_version":            st.Generation,
		"spmvd_retrain_runs_total":       st.Runs,
		"spmvd_retrain_promotions_total": st.Promotions,
		"spmvd_retrain_rejected_total":   st.Rejected,
		"spmvd_retrain_rows_total":       st.Rows,
	} {
		if got := expositionValue(t, rec.Body.String(), metric); got != want {
			t.Errorf("%s = %d, want %d", metric, got, want)
		}
	}
	if rec := do("GET", "/healthz", ""); rec.Code != 200 {
		t.Errorf("healthz after storm: %d %s", rec.Code, rec.Body)
	}

	// Invariant 4: the chaotic filesystem never poisoned the store — a full
	// load succeeds, skipping (and counting) whatever corruption landed.
	rows, err := store.Load()
	if err != nil {
		t.Fatalf("store load after storm: %v", err)
	}
	ss := store.Stats()
	t.Logf("store after storm: %d rows loadable, stats %+v", len(rows), ss)
	for i, r := range rows {
		if err := r.Validate(); err != nil {
			t.Fatalf("loaded row %d invalid: %v", i, err)
		}
	}
}

// searchRows replays an exhaustive tuning search as training rows — one
// per (U, bin, kernel) with the search's own timings — i.e. the evidence a
// perfectly-explored production workload would have produced.
func searchRows(cfg core.Config, fp string, a *sparse.CSR) []retrain.Row {
	res := core.Search(cfg, a)
	feats := cfg.FeatureVector(a)
	var rows []retrain.Row
	for _, ul := range res.PerU {
		for _, bl := range ul.Bins {
			for kid, sec := range bl.KernelTimes {
				if sec <= 0 {
					continue
				}
				rows = append(rows, retrain.Row{
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

// expositionValue extracts one un-labeled integer metric from a /metrics
// body.
func expositionValue(t *testing.T, body, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("metric %s: unparseable value %q", name, rest)
			}
			return int64(v)
		}
	}
	t.Fatalf("metric %s missing from exposition", name)
	return 0
}
