package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spmvtune/internal/hsa"
	"spmvtune/internal/matgen"
	"spmvtune/internal/plan"
	"spmvtune/internal/sparse"
)

// warmPlan tunes the matrix's plan through GET /v1/plans so a following
// concurrent burst hits the enqueue path together instead of serializing
// behind the tuning singleflight.
func warmPlan(t *testing.T, ts *httptest.Server, id string) *plan.TuningPlan {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/plans/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan status %d: %s", resp.StatusCode, blob)
	}
	var p plan.TuningPlan
	if err := json.Unmarshal(blob, &p); err != nil {
		t.Fatal(err)
	}
	return &p
}

// TestCoalescerKeepsEntriesApart: a matrix and its re-upload with other
// values share a fingerprint but are two entries, and never one fused
// launch — not even when together they would fill a batch.
func TestCoalescerKeepsEntriesApart(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) {
		c.BatchWindow = 10 * time.Millisecond
		c.MaxBatch = 2
	})
	a := matgen.RoadNetwork(400, 9)
	a2 := doubled(a)
	fp := plan.Fingerprint(a)
	entries := []*matrixEntry{{ID: fp[:matrixIDLen], Fingerprint: fp, A: a}, {ID: fp[:matrixIDLen], Fingerprint: fp, A: a2}}
	ctx := context.Background()
	p, _, _, err := s.planFor(ctx, entries[0], "")
	if err != nil {
		t.Fatal(err)
	}
	v := make([]float64, a.Cols)
	for i := range v {
		v[i] = 1 / float64(i+1)
	}
	items := make([]*batchItem, len(entries))
	for k, e := range entries {
		items[k] = s.co.enqueue(e, p, s.guardOpts(""), "", v)
	}
	for k, e := range entries {
		if _, _, err := s.co.wait(ctx, items[k]); err != nil {
			t.Fatal(err)
		}
		u, want := items[k].u, make([]float64, a.Rows)
		e.A.MulVec(v, want)
		if i := sparse.FirstVecDiff(want, u, 1e-9); i >= 0 {
			t.Errorf("entry %d: row %d is %v, want its own values' %v", k, i, u[i], want[i])
		}
	}
	if got := s.m.batchSizeCount.Load(); got != 2 {
		t.Errorf("%d fused launches, want one per entry", got)
	}
}

// The PR's acceptance criterion: N concurrent requests for one
// fingerprint inside the window are fused into exactly one guarded
// multi-vector launch, demuxed into N clean 200s with reference-exact
// results.
func TestBatchCoalescerFusesConcurrentRequests(t *testing.T) {
	const n = 6
	_, ts := newTestServer(t, func(c *Config) {
		c.BatchWindow = 5 * time.Second // size trigger decides; the window is a backstop
		c.MaxBatch = n
		c.Workers = n + 2
	})
	a := matgen.Mixed(400, 400, 20, []int{2, 60}, 7)
	id := uploadMatrix(t, ts, a)
	warmPlan(t, ts, id)

	vecs := make([][]float64, n)
	wants := make([][]float64, n)
	for k := range vecs {
		vecs[k] = make([]float64, a.Cols)
		for i := range vecs[k] {
			vecs[k][i] = float64(k+1) / float64(i+2)
		}
		wants[k] = make([]float64, a.Rows)
		a.MulVec(vecs[k], wants[k])
	}

	var wg sync.WaitGroup
	fail := make(chan string, n)
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			vecJSON, _ := json.Marshal(vecs[k])
			body := fmt.Sprintf(`{"matrix":%q,"vector":%s}`, id, vecJSON)
			resp, err := http.Post(ts.URL+"/v1/spmv", "application/json", strings.NewReader(body))
			if err != nil {
				fail <- err.Error()
				return
			}
			defer resp.Body.Close()
			blob, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				fail <- fmt.Sprintf("request %d: status %d: %s", k, resp.StatusCode, blob)
				return
			}
			var out spmvResponse
			if err := json.Unmarshal(blob, &out); err != nil {
				fail <- err.Error()
				return
			}
			if out.Degraded {
				fail <- fmt.Sprintf("request %d: clean fused run reported degraded", k)
				return
			}
			if i := sparse.FirstVecDiff(wants[k], out.Result, 1e-9); i >= 0 {
				fail <- fmt.Sprintf("request %d: row %d differs from reference", k, i)
			}
		}(k)
	}
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Fatal(msg)
	}

	if got := scrapeMetric(t, ts, "spmvd_batch_size_count"); got != 1 {
		t.Errorf("batch flushes = %d, want exactly 1 fused launch", got)
	}
	if got := scrapeMetric(t, ts, "spmvd_batch_size_sum"); got != n {
		t.Errorf("batch size sum = %d, want %d", got, n)
	}
	if got := scrapeMetric(t, ts, `spmvd_batch_flushes_total{trigger="size"}`); got != 1 {
		t.Errorf("size-triggered flushes = %d, want 1", got)
	}
	if got := scrapeMetric(t, ts, `spmvd_batch_flushes_total{trigger="window"}`); got != 0 {
		t.Errorf("window-triggered flushes = %d, want 0", got)
	}
	if got := scrapeMetric(t, ts, "spmvd_batched_requests_total"); got != n {
		t.Errorf("batched requests = %d, want %d", got, n)
	}
	if got := scrapeMetric(t, ts, "spmvd_spmv_vectors_total"); got != n {
		t.Errorf("vectors served = %d, want %d", got, n)
	}
}

// Coalescing must not depend on the worker-pool size: a parked waiter
// releases its slot after enqueueing (the fused launch runs on the flush
// goroutine, outside the pool), so even at Workers=1 a concurrent burst
// fuses instead of serializing one window-flushed batch of one per slot —
// the regression this test pins down was found driving spmvd on a
// single-CPU host, where GOMAXPROCS made -batch-window useless.
func TestBatchCoalescerFusesWithSingleWorker(t *testing.T) {
	const n = 3
	_, ts := newTestServer(t, func(c *Config) {
		c.BatchWindow = 5 * time.Second // size trigger decides; the window is a backstop
		c.MaxBatch = n
		c.Workers = 1
	})
	a := matgen.Mixed(300, 300, 15, []int{2, 40}, 3)
	id := uploadMatrix(t, ts, a)
	warmPlan(t, ts, id)

	var wg sync.WaitGroup
	fail := make(chan string, n)
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			v := make([]float64, a.Cols)
			for i := range v {
				v[i] = float64(k+1) / float64(i+2)
			}
			want := make([]float64, a.Rows)
			a.MulVec(v, want)
			vecJSON, _ := json.Marshal(v)
			body := fmt.Sprintf(`{"matrix":%q,"vector":%s}`, id, vecJSON)
			resp, err := http.Post(ts.URL+"/v1/spmv", "application/json", strings.NewReader(body))
			if err != nil {
				fail <- err.Error()
				return
			}
			defer resp.Body.Close()
			blob, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				fail <- fmt.Sprintf("request %d: status %d: %s", k, resp.StatusCode, blob)
				return
			}
			var out spmvResponse
			if err := json.Unmarshal(blob, &out); err != nil {
				fail <- err.Error()
				return
			}
			if i := sparse.FirstVecDiff(want, out.Result, 1e-9); i >= 0 {
				fail <- fmt.Sprintf("request %d: row %d differs from reference", k, i)
			}
		}(k)
	}
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Fatal(msg)
	}

	if got := scrapeMetric(t, ts, "spmvd_batch_size_count"); got != 1 {
		t.Errorf("batch flushes = %d, want exactly 1 fused launch at Workers=1", got)
	}
	if got := scrapeMetric(t, ts, "spmvd_batch_size_sum"); got != n {
		t.Errorf("batch size sum = %d, want %d", got, n)
	}
	if got := scrapeMetric(t, ts, `spmvd_batch_flushes_total{trigger="size"}`); got != 1 {
		t.Errorf("size-triggered flushes = %d, want 1", got)
	}
}

// A single injected per-vector fault degrades only its own request: the
// NaN-poisoned vector falls out of the fused launch and is re-served
// through the single-vector chain, the other requests keep their clean
// fused results and report no degradation — and every result is still
// reference-exact.
func TestBatchCoalescerIsolatesFaultedRequest(t *testing.T) {
	const n = 4
	var faults atomic.Pointer[hsa.FaultPlan]
	_, ts := newTestServer(t, func(c *Config) {
		c.BatchWindow = 5 * time.Second
		c.MaxBatch = n
		c.Workers = n + 2
		c.FaultHook = func() *hsa.FaultPlan { return faults.Load() }
	})
	a := matgen.Mixed(500, 500, 25, []int{2, 60}, 7)
	id := uploadMatrix(t, ts, a)
	p := warmPlan(t, ts, id)
	if len(p.Bins) == 0 {
		t.Fatal("plan has no bins")
	}
	// A persistent NaN poison on the plan's first bin: the batch layer
	// corrupts exactly one vector of the fused launch with it.
	faults.Store(hsa.NewFaultPlan().AddBinFault(p.Bins[0].Bin, hsa.Fault{Class: hsa.FaultNaNPoison}))

	var wg sync.WaitGroup
	var degradedCount atomic.Int64
	fail := make(chan string, n)
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			v := make([]float64, a.Cols)
			for i := range v {
				v[i] = float64(k+1) / float64(i+2)
			}
			want := make([]float64, a.Rows)
			a.MulVec(v, want)
			vecJSON, _ := json.Marshal(v)
			body := fmt.Sprintf(`{"matrix":%q,"vector":%s}`, id, vecJSON)
			resp, err := http.Post(ts.URL+"/v1/spmv", "application/json", strings.NewReader(body))
			if err != nil {
				fail <- err.Error()
				return
			}
			defer resp.Body.Close()
			blob, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				fail <- fmt.Sprintf("request %d: status %d: %s", k, resp.StatusCode, blob)
				return
			}
			var out spmvResponse
			if err := json.Unmarshal(blob, &out); err != nil {
				fail <- err.Error()
				return
			}
			if out.Degraded {
				degradedCount.Add(1)
			}
			if i := sparse.FirstVecDiff(want, out.Result, 1e-9); i >= 0 {
				fail <- fmt.Sprintf("request %d: row %d differs from reference", k, i)
			}
		}(k)
	}
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Fatal(msg)
	}

	if got := degradedCount.Load(); got != 1 {
		t.Errorf("degraded responses = %d, want exactly 1 (the poisoned vector alone)", got)
	}
	if got := scrapeMetric(t, ts, "spmvd_batch_size_count"); got != 1 {
		t.Errorf("batch flushes = %d, want 1", got)
	}
	if got := scrapeMetric(t, ts, "spmvd_degraded_runs_total"); got != 1 {
		t.Errorf("degraded runs = %d, want 1", got)
	}
}

// A lone request under a short window flushes by timer as a batch of one
// (the B=1 fused path delegates to the plain single-vector executor) and
// still answers correctly.
func TestBatchWindowFlushesSingleRequest(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.BatchWindow = 2 * time.Millisecond
	})
	a := matgen.Banded(128, 3, 1)
	id := uploadMatrix(t, ts, a)

	v := make([]float64, a.Cols)
	for i := range v {
		v[i] = 1.0 / float64(i+1)
	}
	want := make([]float64, a.Rows)
	a.MulVec(v, want)
	vecJSON, _ := json.Marshal(v)
	resp, blob := postSpMV(t, ts, fmt.Sprintf(`{"matrix":%q,"vector":%s}`, id, vecJSON))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, blob)
	}
	var out spmvResponse
	if err := json.Unmarshal(blob, &out); err != nil {
		t.Fatal(err)
	}
	if i := sparse.FirstVecDiff(want, out.Result, 1e-9); i >= 0 {
		t.Fatalf("row %d differs from reference", i)
	}
	if got := scrapeMetric(t, ts, `spmvd_batch_flushes_total{trigger="window"}`); got != 1 {
		t.Errorf("window-triggered flushes = %d, want 1", got)
	}
	if got := scrapeMetric(t, ts, `spmvd_batch_flushes_total{trigger="size"}`); got != 0 {
		t.Errorf("size-triggered flushes = %d, want 0", got)
	}
	if got := scrapeMetric(t, ts, "spmvd_batched_requests_total"); got != 1 {
		t.Errorf("batched requests = %d, want 1", got)
	}
}

// Session iterates fuse with stateless requests: a resident spmv
// session's multiply and a concurrent POST /v1/spmv against the same
// matrix share one fused launch.
func TestBatchCoalescerFusesSessionIterate(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.BatchWindow = 5 * time.Second
		c.MaxBatch = 2
		c.Workers = 4
	})
	a := matgen.Mixed(300, 300, 15, []int{2, 40}, 9)
	id := uploadMatrix(t, ts, a)
	warmPlan(t, ts, id)

	// Create the resident spmv session.
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json",
		strings.NewReader(fmt.Sprintf(`{"matrix":%q,"solver":"spmv"}`, id)))
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("solve status %d: %s", resp.StatusCode, blob)
	}
	var created sessionStatus
	if err := json.Unmarshal(blob, &created); err != nil {
		t.Fatal(err)
	}

	v1 := make([]float64, a.Cols)
	v2 := make([]float64, a.Cols)
	for i := range v1 {
		v1[i] = 1.0 / float64(i+1)
		v2[i] = float64(i%7) + 0.5
	}
	want1 := make([]float64, a.Rows)
	want2 := make([]float64, a.Rows)
	a.MulVec(v1, want1)
	a.MulVec(v2, want2)

	var wg sync.WaitGroup
	fail := make(chan string, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		vecJSON, _ := json.Marshal(v1)
		body := fmt.Sprintf(`{"vector":%s}`, vecJSON)
		resp, err := http.Post(ts.URL+"/v1/solve/"+created.Session+"/iterate", "application/json", strings.NewReader(body))
		if err != nil {
			fail <- err.Error()
			return
		}
		defer resp.Body.Close()
		blob, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			fail <- fmt.Sprintf("iterate status %d: %s", resp.StatusCode, blob)
			return
		}
		var st sessionStatus
		if err := json.Unmarshal(blob, &st); err != nil {
			fail <- err.Error()
			return
		}
		if i := sparse.FirstVecDiff(want1, st.Result, 1e-9); i >= 0 {
			fail <- fmt.Sprintf("iterate result: row %d differs from reference", i)
		}
	}()
	go func() {
		defer wg.Done()
		vecJSON, _ := json.Marshal(v2)
		body := fmt.Sprintf(`{"matrix":%q,"vector":%s}`, id, vecJSON)
		resp, err := http.Post(ts.URL+"/v1/spmv", "application/json", strings.NewReader(body))
		if err != nil {
			fail <- err.Error()
			return
		}
		defer resp.Body.Close()
		blob, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			fail <- fmt.Sprintf("spmv status %d: %s", resp.StatusCode, blob)
			return
		}
		var out spmvResponse
		if err := json.Unmarshal(blob, &out); err != nil {
			fail <- err.Error()
			return
		}
		if i := sparse.FirstVecDiff(want2, out.Result, 1e-9); i >= 0 {
			fail <- fmt.Sprintf("spmv result: row %d differs from reference", i)
		}
	}()
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Fatal(msg)
	}

	if got := scrapeMetric(t, ts, "spmvd_batch_size_count"); got != 1 {
		t.Errorf("batch flushes = %d, want 1 fused launch across both paths", got)
	}
	if got := scrapeMetric(t, ts, "spmvd_batch_size_sum"); got != 2 {
		t.Errorf("batch size sum = %d, want 2", got)
	}
	if got := scrapeMetric(t, ts, "spmvd_session_iterations_total"); got != 1 {
		t.Errorf("session iterations = %d, want 1", got)
	}
}

// discardResponse is a ResponseWriter that keeps the status and drops the
// body, so a test's allocation count holds the server's own.
type discardResponse struct {
	header http.Header
	status int
}

func (w *discardResponse) Header() http.Header         { return w.header }
func (w *discardResponse) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardResponse) WriteHeader(status int)      { w.status = status }

// TestCoalescedRequestResultBuffers is the gate on a warm B = 8 coalesced
// request's result buffers (scripts/check.sh): the batch items' results,
// which the response serves, and the response itself come from the
// recycler, so a warm request allocates less than one row-sized buffer in
// all. The matrix is tall and narrow, so the request's own vectors are
// small against its results, and the allocation count is read in bytes. It
// skips under -race, whose sync.Pool drops core's pooled reference slab at
// random.
func TestCoalescedRequestResultBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random")
	}
	const nb = 8
	s, ts := newTestServer(t, func(c *Config) {
		c.BatchWindow = time.Minute // the size trigger flushes every request's batch
		c.MaxBatch = nb
	})
	a := matgen.RandomUniform(16384, 4, 1, 4, 5)
	id := uploadMatrix(t, ts, a)
	warmPlan(t, ts, id)
	var body strings.Builder
	fmt.Fprintf(&body, `{"matrix":%q,"vectors":[`, id)
	for b := 0; b < nb; b++ {
		if b > 0 {
			body.WriteByte(',')
		}
		fmt.Fprintf(&body, "[%d,0.5,-1.25,3]", b+1)
	}
	body.WriteString("]}")
	serve := func() {
		w := &discardResponse{header: make(http.Header)}
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/spmv", strings.NewReader(body.String())))
		if w.status != http.StatusOK {
			t.Fatalf("status %d", w.status)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	serve() // warm the pooled reference slab and response buffer
	const runs = 4
	size, _ := allocated(func() {
		for i := 0; i < runs; i++ {
			serve()
		}
	})
	row := uint64(8 * a.Rows)
	t.Logf("warm B=%d request: %d bytes, a row-sized buffer is %d", nb, size/runs, row)
	if size/runs >= row {
		t.Errorf("a warm B=%d coalesced request allocates %d bytes, want < %d (one row-sized buffer)", nb, size/runs, row)
	}
}
