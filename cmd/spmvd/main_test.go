package main

import (
	"bytes"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"testing"

	"spmvtune/internal/core"
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
// its default 24-matrix corpus: host-side speedups of corpus generation or
// labelling must not move it. Never regenerate the constant.
func TestBootstrapModelVersion(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)
	m, err := obtainModel("", 24, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := core.ModelVersion(m), "ef446644505c477b"; got != want {
		t.Errorf("bootstrap model version %s, want %s", got, want)
	}
}
