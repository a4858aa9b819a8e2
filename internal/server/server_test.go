package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"spmvtune/internal/c50"
	"spmvtune/internal/core"
	"spmvtune/internal/hsa"
	"spmvtune/internal/matgen"
	"spmvtune/internal/mmio"
	"spmvtune/internal/sparse"
)

// testFramework trains one tiny model for the whole package (training
// labels matrices by exhaustive simulated search, so share it).
var (
	fwOnce sync.Once
	fwTest *core.Framework
)

func testFramework(t *testing.T) *core.Framework {
	t.Helper()
	fwOnce.Do(func() {
		cfg := core.Config{Device: hsa.DefaultConfig(), MaxBins: 32, Us: []int{10, 50, 200, 1000}}
		td := core.NewTrainingData(cfg)
		td.AddMatrix(cfg, matgen.RoadNetwork(600, 1))
		td.AddMatrix(cfg, matgen.BlockFEM(80, 150, 30, 2))
		fwTest = core.NewFramework(cfg, core.TrainModel(td, cfg, c50.DefaultOptions()))
	})
	return fwTest
}

func newTestServer(t *testing.T, mut func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{Framework: testFramework(t)}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// uploadMatrix posts a as Matrix Market and returns the assigned ID.
func uploadMatrix(t *testing.T, ts *httptest.Server, a *sparse.CSR) string {
	t.Helper()
	var buf bytes.Buffer
	if err := mmio.Write(&buf, a); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/matrices", "text/plain", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("upload status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		ID   string `json:"id"`
		Rows int    `json:"rows"`
		NNZ  int    `json:"nnz"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Rows != a.Rows || out.NNZ != a.NNZ() {
		t.Fatalf("upload echo wrong: %+v", out)
	}
	return out.ID
}

func postSpMV(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/spmv", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, blob
}

func scrapeMetric(t *testing.T, ts *httptest.Server, name string) int64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(blob), "\n") {
		var v int64
		if n, _ := fmt.Sscanf(line, name+" %d", &v); n == 1 && strings.HasPrefix(line, name+" ") {
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, blob)
	return 0
}

// TestConcurrentSpMVSingleTuningPass is the PR's acceptance criterion: N
// concurrent requests for the same uploaded matrix tune exactly once, the
// cache hit counter reflects N-1 hits, and every result matches the
// reference within tolerance.
func TestConcurrentSpMVSingleTuningPass(t *testing.T) {
	_, ts := newTestServer(t, nil)
	a := matgen.Mixed(500, 500, 25, []int{2, 60}, 7)
	id := uploadMatrix(t, ts, a)

	v := make([]float64, a.Cols)
	for i := range v {
		v[i] = 1.0 / float64(i+1)
	}
	want := make([]float64, a.Rows)
	a.MulVec(v, want)
	vecJSON, _ := json.Marshal(v)
	reqBody := fmt.Sprintf(`{"matrix":%q,"vector":%s}`, id, vecJSON)

	const n = 8
	var wg sync.WaitGroup
	fail := make(chan string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/spmv", "application/json", strings.NewReader(reqBody))
			if err != nil {
				fail <- err.Error()
				return
			}
			defer resp.Body.Close()
			blob, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				fail <- fmt.Sprintf("status %d: %s", resp.StatusCode, blob)
				return
			}
			var out spmvResponse
			if err := json.Unmarshal(blob, &out); err != nil {
				fail <- err.Error()
				return
			}
			if len(out.Result) != a.Rows {
				fail <- fmt.Sprintf("result length %d", len(out.Result))
				return
			}
			if i := sparse.FirstVecDiff(want, out.Result, 1e-9); i >= 0 {
				fail <- fmt.Sprintf("row %d differs from reference", i)
			}
		}()
	}
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Fatal(msg)
	}

	if got := scrapeMetric(t, ts, "spmvd_plan_cache_misses"); got != 1 {
		t.Errorf("cache misses %d, want exactly 1 tuning pass", got)
	}
	if got := scrapeMetric(t, ts, "spmvd_plan_cache_hits"); got != n-1 {
		t.Errorf("cache hits %d, want %d", got, n-1)
	}
	if got := scrapeMetric(t, ts, "spmvd_spmv_vectors_total"); got != n {
		t.Errorf("vectors served %d, want %d", got, n)
	}
}

// TestExpiredDeadlineReturnsCanceled is the second acceptance clause: a
// request whose deadline has already expired gets the canceled error
// class, deterministically, instead of hanging. The request context is
// pre-canceled and the handler invoked directly so no wall-clock race is
// involved.
func TestExpiredDeadlineReturnsCanceled(t *testing.T) {
	s, ts := newTestServer(t, nil)
	a := matgen.Mixed(500, 500, 25, []int{2, 60}, 7)
	id := uploadMatrix(t, ts, a)

	// Warm the plan cache so the canceled request exercises execution, not
	// planning.
	v := make([]float64, a.Cols)
	vecJSON, _ := json.Marshal(v)
	body := fmt.Sprintf(`{"matrix":%q,"vector":%s}`, id, vecJSON)
	if resp, blob := postSpMV(t, ts, body); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup status %d: %s", resp.StatusCode, blob)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("POST", "/v1/spmv", strings.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		s.ServeHTTP(rec, req)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("request with expired deadline hung")
	}
	var out struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("body %q: %v", rec.Body.String(), err)
	}
	if out.Error != "canceled" {
		t.Errorf("error class %q (status %d), want canceled", out.Error, rec.Code)
	}
	if rec.Code != http.StatusGatewayTimeout {
		t.Errorf("status %d, want 504", rec.Code)
	}
	if got := scrapeMetric(t, ts, "spmvd_canceled_total"); got < 1 {
		t.Error("canceled counter did not move")
	}
}

func TestBatchSpMVAndPlanEndpoint(t *testing.T) {
	_, ts := newTestServer(t, nil)
	a := matgen.Banded(300, 5, 11)
	id := uploadMatrix(t, ts, a)

	vecs := make([][]float64, 3)
	for k := range vecs {
		vecs[k] = make([]float64, a.Cols)
		for i := range vecs[k] {
			vecs[k][i] = float64((i + k) % 7)
		}
	}
	body, _ := json.Marshal(map[string]any{"matrix": id, "vectors": vecs})
	resp, blob := postSpMV(t, ts, string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, blob)
	}
	var out spmvResponse
	if err := json.Unmarshal(blob, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 3 {
		t.Fatalf("got %d results", len(out.Results))
	}
	for k := range vecs {
		want := make([]float64, a.Rows)
		a.MulVec(vecs[k], want)
		if i := sparse.FirstVecDiff(want, out.Results[k], 1e-9); i >= 0 {
			t.Errorf("batch %d row %d wrong", k, i)
		}
	}

	// The plan endpoint serves the cached plan.
	presp, err := http.Get(ts.URL + "/v1/plans/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer presp.Body.Close()
	pblob, _ := io.ReadAll(presp.Body)
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("plan status %d: %s", presp.StatusCode, pblob)
	}
	var p struct {
		Fingerprint string `json:"fingerprint"`
		U           int    `json:"u"`
		Bins        []any  `json:"bins"`
	}
	if err := json.Unmarshal(pblob, &p); err != nil {
		t.Fatal(err)
	}
	if p.Fingerprint == "" || len(p.Bins) == 0 {
		t.Errorf("plan: %s", pblob)
	}
	if out.Plan != p.Fingerprint {
		t.Error("spmv response and plan endpoint disagree on fingerprint")
	}
}

func TestRequestValidationErrors(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.MaxBatch = 2 })
	a := matgen.Banded(100, 3, 1)
	id := uploadMatrix(t, ts, a)

	cases := []struct {
		name, body string
		status     int
	}{
		{"bad json", `{`, 400},
		{"no matrix", `{"vector":[1]}`, 400},
		{"no vector", fmt.Sprintf(`{"matrix":%q}`, id), 400},
		{"both forms", fmt.Sprintf(`{"matrix":%q,"vector":[1],"vectors":[[1]]}`, id), 400},
		{"unknown matrix", `{"matrix":"ffffffffffffffff","vector":[1]}`, 404},
		{"wrong length", fmt.Sprintf(`{"matrix":%q,"vector":[1,2,3]}`, id), 400},
		{"batch too big", fmt.Sprintf(`{"matrix":%q,"vectors":[[1],[1],[1]]}`, id), 400},
		{"negative timeout", fmt.Sprintf(`{"matrix":%q,"vector":[1],"timeoutMs":-5}`, id), 400},
	}
	for _, tc := range cases {
		resp, blob := postSpMV(t, ts, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d want %d (%s)", tc.name, resp.StatusCode, tc.status, blob)
		}
	}

	// Upload rejections: malformed body and a header past the limits.
	resp, err := http.Post(ts.URL+"/v1/matrices", "text/plain", strings.NewReader("not a matrix"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage upload status %d", resp.StatusCode)
	}
	huge := "%%MatrixMarket matrix coordinate real general\n99999999999 99999999999 1\n1 1 1.0\n"
	resp, err = http.Post(ts.URL+"/v1/matrices", "text/plain", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized header status %d", resp.StatusCode)
	}

	// A body past MaxBodyBytes is 413 with one body shape on every endpoint
	// that reads one, whether its length was declared (refused before a byte
	// is read) or not (the limited reader trips partway).
	_, small := newTestServer(t, func(c *Config) { c.MaxBodyBytes = 64 })
	var mtx bytes.Buffer
	if err := mmio.Write(&mtx, a); err != nil {
		t.Fatal(err)
	}
	oversized := fmt.Sprintf(`{"matrix":%q,"vector":[%s1]}`, id, strings.Repeat("1,", 64))
	for _, tc := range []struct{ path, body string }{
		{"/v1/matrices", mtx.String()},
		{"/v1/spmv", oversized},
		{"/v1/solve", oversized},
		{"/v1/solve/sv-00000001/iterate", oversized},
	} {
		for _, declared := range []bool{true, false} {
			var body io.Reader = strings.NewReader(tc.body)
			if !declared {
				body = io.MultiReader(body) // a type net/http cannot size: sent chunked
			}
			resp, err := http.Post(small.URL+tc.path, "application/json", body)
			if err != nil {
				t.Fatal(err)
			}
			blob, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			want := `{"detail":"body exceeds 64 bytes","error":"invalid"}` + "\n"
			if resp.StatusCode != http.StatusRequestEntityTooLarge || string(blob) != want {
				t.Errorf("oversized %s (length declared: %v): status %d body %s, want 413 %s", tc.path, declared, resp.StatusCode, blob, want)
			}
		}
	}
}

// countingReader counts the bytes read from it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestUploadDeclaredTooLargeIsNotRead: an upload whose Content-Length
// exceeds MaxBodyBytes gets the 413 every oversized body gets without a
// byte of it being read, as on the JSON endpoints; the same body undeclared
// is read until the limit trips.
func TestUploadDeclaredTooLargeIsNotRead(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) { c.MaxBodyBytes = 64 })
	var mtx bytes.Buffer
	if err := mmio.Write(&mtx, matgen.Banded(100, 3, 1)); err != nil {
		t.Fatal(err)
	}
	for _, declared := range []bool{true, false} {
		body := &countingReader{r: bytes.NewReader(mtx.Bytes())}
		req := httptest.NewRequest("POST", "/v1/matrices", body)
		req.ContentLength = -1
		if declared {
			req.ContentLength = int64(mtx.Len())
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		want := `{"detail":"body exceeds 64 bytes","error":"invalid"}` + "\n"
		if rec.Code != http.StatusRequestEntityTooLarge || rec.Body.String() != want {
			t.Errorf("declared %v: status %d body %s, want 413 %s", declared, rec.Code, rec.Body, want)
		}
		if declared && body.n != 0 {
			t.Errorf("declared oversized upload: %d bytes read, want 0", body.n)
		}
		if !declared && body.n <= 64 {
			t.Errorf("undeclared oversized upload: %d bytes read, want the limit's worth and more", body.n)
		}
	}

	// Undeclared and many pieces long: the limit trips on whichever
	// goroutine reads past it, and the answer is still the one 413.
	_, ts := newTestServer(t, func(c *Config) { c.MaxBodyBytes = 300 << 10 })
	mtx.Reset()
	if err := mmio.Write(&mtx, matgen.PowerLaw(6000, 6, 2.1, 800, 1)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/matrices", "text/plain", io.MultiReader(&mtx))
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := `{"detail":"body exceeds 307200 bytes","error":"invalid"}` + "\n"; resp.StatusCode != http.StatusRequestEntityTooLarge || string(blob) != want {
		t.Errorf("undeclared upload of %d bytes: status %d body %s, want 413 %s", mtx.Len(), resp.StatusCode, blob, want)
	}
}

// TestQueueBackpressure saturates a 1-worker, 1-deep queue and checks that
// overflow requests get 429 with the overloaded class.
func TestQueueBackpressure(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 1
	})
	a := matgen.Banded(100, 3, 1)
	id := uploadMatrix(t, ts, a)

	// Occupy the single worker slot and the single queue slot directly —
	// deterministic, no timing on real requests.
	s.sem <- struct{}{}
	s.queue <- struct{}{}
	s.queue <- struct{}{} // queue cap is Workers+QueueDepth = 2
	defer func() { <-s.sem; <-s.queue; <-s.queue }()

	vec, _ := json.Marshal(make([]float64, a.Cols))
	resp, blob := postSpMV(t, ts, fmt.Sprintf(`{"matrix":%q,"vector":%s}`, id, vec))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d: %s", resp.StatusCode, blob)
	}
	var out struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(blob, &out); err != nil || out.Error != "overloaded" {
		t.Errorf("body %s", blob)
	}
	if got := scrapeMetric(t, ts, "spmvd_rejected_total"); got != 1 {
		t.Errorf("rejected counter %d", got)
	}
}

func TestHealthzAndUploadIdempotent(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(blob), "ok") {
		t.Errorf("healthz: %d %s", resp.StatusCode, blob)
	}

	a := matgen.RoadNetwork(400, 9)
	id1 := uploadMatrix(t, ts, a)
	id2 := uploadMatrix(t, ts, a)
	if id1 != id2 {
		t.Errorf("same structure produced different ids: %s %s", id1, id2)
	}
	if got := scrapeMetric(t, ts, "spmvd_matrices_stored"); got != 1 {
		t.Errorf("stored %d matrices, want deduped 1", got)
	}
}

// doubled is a's structure with every value doubled: a re-upload under the
// same matrix ID with other coefficients.
func doubled(a *sparse.CSR) *sparse.CSR {
	a2 := a.Clone()
	for k := range a2.Val {
		a2.Val[k] *= 2
	}
	return a2
}

// TestReuploadServesLatestValues: the matrix ID is the structure's, so
// re-uploading a mesh with new coefficients answers the same ID — and every
// later multiplication must use the new coefficients, with and without the
// coalescer.
func TestReuploadServesLatestValues(t *testing.T) {
	for _, window := range []time.Duration{0, time.Millisecond} {
		t.Run(fmt.Sprintf("batch-window=%v", window), func(t *testing.T) {
			_, ts := newTestServer(t, func(c *Config) { c.BatchWindow = window })
			a := matgen.RoadNetwork(400, 9)
			a2 := doubled(a)
			v := make([]float64, a.Cols)
			for i := range v {
				v[i] = 1 / float64(i+1)
			}
			vecJSON, _ := json.Marshal(v)
			body := fmt.Sprintf(`{"matrix":%q,"vector":%s}`, uploadMatrix(t, ts, a), vecJSON)
			for _, m := range []*sparse.CSR{a, a2, a} {
				if id := uploadMatrix(t, ts, m); !strings.Contains(body, id) {
					t.Fatalf("re-upload answered id %s", id)
				}
				resp, blob := postSpMV(t, ts, body)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("spmv status %d: %s", resp.StatusCode, blob)
				}
				var out spmvResponse
				if err := json.Unmarshal(blob, &out); err != nil {
					t.Fatal(err)
				}
				want := make([]float64, m.Rows)
				m.MulVec(v, want)
				if i := sparse.FirstVecDiff(want, out.Result, 1e-9); i >= 0 {
					t.Fatalf("row %d: got %v, want the latest upload's %v", i, out.Result[i], want[i])
				}
			}
			if got := scrapeMetric(t, ts, "spmvd_matrices_stored"); got != 1 {
				t.Errorf("stored %d matrices, want 1", got)
			}
		})
	}
}

// TestConcurrentReuploads races re-uploads of one structure with two value
// sets against batched multiplications (run it under -race): every product
// is A·v or 2A·v, never a blend, and one entry is stored.
func TestConcurrentReuploads(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.BatchWindow = time.Millisecond })
	a := matgen.RoadNetwork(200, 3)
	a2 := doubled(a)
	v := make([]float64, a.Cols)
	for i := range v {
		v[i] = 1 / float64(i+1)
	}
	want, want2 := make([]float64, a.Rows), make([]float64, a.Rows)
	a.MulVec(v, want)
	a2.MulVec(v, want2)
	vecJSON, _ := json.Marshal(v)
	body := fmt.Sprintf(`{"matrix":%q,"vector":%s}`, uploadMatrix(t, ts, a), vecJSON)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 8; k++ {
				if g%2 == 0 {
					var buf bytes.Buffer
					if err := mmio.Write(&buf, []*sparse.CSR{a, a2}[k%2]); err != nil {
						t.Error(err)
						return
					}
					resp, err := http.Post(ts.URL+"/v1/matrices", "text/plain", &buf)
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
					continue
				}
				resp, err := http.Post(ts.URL+"/v1/spmv", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var out spmvResponse
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				if sparse.FirstVecDiff(want, out.Result, 1e-9) >= 0 && sparse.FirstVecDiff(want2, out.Result, 1e-9) >= 0 {
					t.Errorf("product is neither A·v nor 2A·v")
				}
			}
		}(g)
	}
	wg.Wait()
	if got := scrapeMetric(t, ts, "spmvd_matrices_stored"); got != 1 {
		t.Errorf("stored %d matrices, want 1", got)
	}
}

func TestMatrixCapacityEviction(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.MaxMatrices = 2 })
	ids := make([]string, 3)
	for i := range ids {
		ids[i] = uploadMatrix(t, ts, matgen.Banded(100+10*i, 3, int64(i)))
	}
	vec0, _ := json.Marshal(make([]float64, 100))
	resp, _ := postSpMV(t, ts, fmt.Sprintf(`{"matrix":%q,"vector":%s}`, ids[0], vec0))
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("oldest matrix should have been evicted, got %d", resp.StatusCode)
	}
	vec2, _ := json.Marshal(make([]float64, 120))
	resp, blob := postSpMV(t, ts, fmt.Sprintf(`{"matrix":%q,"vector":%s}`, ids[2], vec2))
	if resp.StatusCode != http.StatusOK {
		t.Errorf("newest matrix gone: %d %s", resp.StatusCode, blob)
	}
}
