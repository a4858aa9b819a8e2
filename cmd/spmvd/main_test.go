package main

import (
	"bytes"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"runtime"
	"testing"

	"spmvtune/internal/core"
	"spmvtune/internal/plancache"
	"spmvtune/internal/retrain"
	"spmvtune/internal/server"
)

// TestPprofOnlyOnItsOwnListener: the API handler answers 404 on
// /debug/pprof/ although this binary imports net/http/pprof, and the -pprof
// listener's handler, http.DefaultServeMux, serves the profile index.
func TestPprofOnlyOnItsOwnListener(t *testing.T) {
	srv, err := server.New(server.Config{Framework: core.NewFramework(core.DefaultConfig(), nil)})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap", "/debug/pprof/cmdline"} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusNotFound {
			t.Errorf("API handler: GET %s = %d, want 404", path, rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	http.DefaultServeMux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("pprof listener: GET /debug/pprof/ = %d, want 200", rec.Code)
	}
}

// TestBootstrapLogReportsCostCache: the bootstrap's summary line carries the
// shared cost cache's counters, which its labeling searches filled.
func TestBootstrapLogReportsCostCache(t *testing.T) {
	var buf bytes.Buffer
	log.SetOutput(&buf)
	defer log.SetOutput(os.Stderr)
	if _, err := obtainModel("", 2, core.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`bootstrap: .* \(cost cache \{Hits:\d+ Misses:[1-9]\d* Pruned:\d+`).Match(buf.Bytes()) {
		t.Errorf("bootstrap log lacks the cost cache's counters:\n%s", buf.String())
	}
}

// TestBootstrapModelVersion pins the model a bootstrapping daemon trains on
// its default 24-matrix corpus, and on a 4-matrix corpus in the synthesized
// kernel space (whose search also scores the storage formats): host-side
// speedups of corpus generation or labelling must not move them. Never
// regenerate the constants.
func TestBootstrapModelVersion(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)
	synth := core.DefaultConfig()
	synth.KernelSpace = "synth"
	for _, tc := range []struct {
		name   string
		corpus int
		cfg    core.Config
		want   string
	}{
		{"pool", 24, core.DefaultConfig(), "ef446644505c477b"},
		{"synth", 4, synth, "50fab818bb798539"},
	} {
		m, err := obtainModel("", tc.corpus, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := core.ModelVersion(m); got != tc.want {
			t.Errorf("%s bootstrap model version %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestHoldoutRegretGolden pins the retrain promotion gate's score of the
// pool bootstrap model: core.EvaluateRegret over retrain.DefaultHoldout(),
// every field by exact equality. Never regenerate the constant.
func TestHoldoutRegretGolden(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)
	m, err := obtainModel("", 24, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	got := core.EvaluateRegret(core.DefaultConfig(), m, retrain.DefaultHoldout())
	want := core.Regret{N: 8, GeoMean: 1.0471590467246465, Worst: 1.1285838401390096, WithinX: 0.75}
	if got != want {
		t.Errorf("holdout regret %#v, want %#v", got, want)
	}
}

// TestBootstrapAllocBudget bounds what a bootstrapping daemon allocates to
// label and train on its default 24-matrix corpus, which sets its peak
// memory: the corpus is value-free, so its 1.5 M values are never built.
// A fresh cost cache keeps the measure cold whatever ran before; the
// budget is 48 MB (about 100 MB with the values).
func TestBootstrapAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates for its instrumentation")
	}
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)
	cfg := core.DefaultConfig()
	cfg.SearchCache = plancache.NewCostCache(plancache.CostCacheOptions{})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := obtainModel("", 24, cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const budget = 48 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Errorf("bootstrap allocated %.1f MB, budget %d MB", float64(got)/(1<<20), budget>>20)
	} else {
		t.Logf("bootstrap allocated %.1f MB (%d GCs)", float64(got)/(1<<20), after.NumGC-before.NumGC)
	}
}
