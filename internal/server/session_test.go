package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"spmvtune/internal/sparse"
)

// spdBanded builds a strictly diagonally dominant symmetric band matrix —
// SPD, so CG and Jacobi both converge on it.
func spdBanded(t *testing.T, n, band int) *sparse.CSR {
	t.Helper()
	coo := &sparse.COO{Rows: n, Cols: n}
	half := band / 2
	for i := 0; i < n; i++ {
		for d := -half; d <= half; d++ {
			j := i + d
			if j < 0 || j >= n {
				continue
			}
			if d == 0 {
				coo.Add(i, j, float64(band)+1)
			} else {
				coo.Add(i, j, -1)
			}
		}
	}
	a, err := coo.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func doJSON(t *testing.T, method, url, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
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

func createSession(t *testing.T, ts *httptest.Server, body string) (string, sessionStatus) {
	t.Helper()
	resp, blob := doJSON(t, http.MethodPost, ts.URL+"/v1/solve", body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("solve status %d: %s", resp.StatusCode, blob)
	}
	var st sessionStatus
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	if st.Session == "" {
		t.Fatalf("create response carries no session id: %s", blob)
	}
	return st.Session, st
}

func iterate(t *testing.T, ts *httptest.Server, id, body string) (int, sessionStatus) {
	t.Helper()
	resp, blob := doJSON(t, http.MethodPost, ts.URL+"/v1/solve/"+id+"/iterate", body)
	var st sessionStatus
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(blob, &st); err != nil {
			t.Fatalf("iterate body %s: %v", blob, err)
		}
	}
	return resp.StatusCode, st
}

func floatsJSON(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%g", x)
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// TestSolveSessionCG100Iterations is the PR's acceptance criterion: a
// 100-iteration CG solve through /v1/solve pays exactly one tuning pass
// (plan-cache misses and tune count both 1) and re-uploads nothing per
// iteration — every iterate request body is a few bytes, carrying neither
// matrix nor vectors.
func TestSolveSessionCG100Iterations(t *testing.T) {
	_, ts := newTestServer(t, nil)
	a := spdBanded(t, 200, 5)
	id := uploadMatrix(t, ts, a)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}

	// An unreachable tolerance forces the full 100-iteration budget.
	sid, created := createSession(t, ts, fmt.Sprintf(
		`{"matrix":%q,"solver":"cg","b":%s,"tol":1e-300,"maxIterations":100}`, id, floatsJSON(b)))
	if created.CacheHit {
		t.Fatal("create hit the plan cache — expected this session to pay the tuning pass")
	}
	if created.Iterations != 0 || created.Done {
		t.Fatalf("fresh session state: %+v", created)
	}

	var last sessionStatus
	for k := 0; k < 10; k++ {
		body := `{"steps":10}`
		if len(body) >= 64 {
			t.Fatalf("iterate payload is %d bytes — the session is supposed to make iterations cheap", len(body))
		}
		code, st := iterate(t, ts, sid, body)
		if code != http.StatusOK {
			t.Fatalf("iterate %d: status %d", k, code)
		}
		if st.Iterations != (k+1)*10 {
			t.Fatalf("after batch %d: %d iterations, want %d", k, st.Iterations, (k+1)*10)
		}
		last = st
	}
	if !last.Done || last.Converged {
		t.Fatalf("after 100 iterations: done=%v converged=%v (tol was unreachable)", last.Done, last.Converged)
	}
	if len(last.X) != a.Rows {
		t.Fatalf("final response carries no solution (len %d)", len(last.X))
	}

	// Exactly one tuning pass for the whole 100-iteration solve.
	if misses := scrapeMetric(t, ts, "spmvd_plan_cache_misses"); misses != 1 {
		t.Errorf("plan cache misses = %d, want exactly 1", misses)
	}
	if tunes := scrapeMetric(t, ts, "spmvd_tune_seconds_count"); tunes != 1 {
		t.Errorf("tuning passes = %d, want exactly 1", tunes)
	}
	if iters := scrapeMetric(t, ts, "spmvd_session_iterations_total"); iters != 100 {
		t.Errorf("spmvd_session_iterations_total = %d, want 100", iters)
	}
	if retunes := scrapeMetric(t, ts, "spmvd_session_retunes_total"); retunes != 0 {
		t.Errorf("spmvd_session_retunes_total = %d, want 0 (no model swap happened)", retunes)
	}
	if active := scrapeMetric(t, ts, "spmvd_sessions_active"); active != 1 {
		t.Errorf("spmvd_sessions_active = %d, want 1", active)
	}
}

// TestSolveSessionCGConverges: with a reachable tolerance the session
// converges and the returned solution actually solves the system.
func TestSolveSessionCGConverges(t *testing.T) {
	_, ts := newTestServer(t, nil)
	a := spdBanded(t, 150, 5)
	id := uploadMatrix(t, ts, a)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = float64(i%7) + 1
	}
	sid, _ := createSession(t, ts, fmt.Sprintf(
		`{"matrix":%q,"solver":"cg","b":%s,"tol":1e-10,"maxIterations":500}`, id, floatsJSON(b)))

	var st sessionStatus
	for k := 0; k < 50; k++ {
		var code int
		code, st = iterate(t, ts, sid, `{"steps":20}`)
		if code != http.StatusOK {
			t.Fatalf("iterate: status %d", code)
		}
		if st.Done {
			break
		}
	}
	if !st.Converged {
		t.Fatalf("did not converge: %+v", st)
	}
	// Check the solution against the matrix directly.
	r := make([]float64, a.Rows)
	a.MulVec(st.X, r)
	var rn, bn float64
	for i := range r {
		d := b[i] - r[i]
		rn += d * d
		bn += b[i] * b[i]
	}
	if rel := math.Sqrt(rn / bn); rel > 1e-8 {
		t.Errorf("returned x has relative residual %g", rel)
	}
	// Iterating a done session is an idempotent no-op.
	iters := st.Iterations
	code, again := iterate(t, ts, sid, `{"steps":5}`)
	if code != http.StatusOK || again.Iterations != iters || !again.Done {
		t.Errorf("post-convergence iterate: code %d, %+v", code, again)
	}
}

// TestSolveRunModeStreamsJSONL: mode "run" drives the whole solve
// server-side, streaming one JSONL progress line per iteration and a
// final line carrying the solution.
func TestSolveRunModeStreamsJSONL(t *testing.T) {
	_, ts := newTestServer(t, nil)
	a := spdBanded(t, 100, 5)
	id := uploadMatrix(t, ts, a)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(fmt.Sprintf(
		`{"matrix":%q,"solver":"cg","b":%s,"tol":1e-10,"maxIterations":500,"mode":"run"}`, id, floatsJSON(b))))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		blob, _ := io.ReadAll(resp.Body)
		t.Fatalf("run status %d: %s", resp.StatusCode, blob)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) < 3 {
		t.Fatalf("stream has %d lines, want at least progress + final", len(lines))
	}
	// Progress lines: iter strictly increasing, residual finite.
	prev := 0
	for _, line := range lines[:len(lines)-1] {
		var p struct {
			Iter     int     `json:"iter"`
			Residual float64 `json:"residual"`
		}
		if err := json.Unmarshal([]byte(line), &p); err != nil {
			t.Fatalf("bad progress line %q: %v", line, err)
		}
		if p.Iter != prev+1 || math.IsNaN(p.Residual) {
			t.Fatalf("progress line %q after iter %d", line, prev)
		}
		prev = p.Iter
	}
	var final sessionStatus
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		t.Fatalf("bad final line: %v", err)
	}
	if !final.Done || !final.Converged || len(final.X) != a.Rows {
		t.Fatalf("final line: done=%v converged=%v len(x)=%d", final.Done, final.Converged, len(final.X))
	}
	// Run mode leaves nothing resident.
	if active := scrapeMetric(t, ts, "spmvd_sessions_active"); active != 0 {
		t.Errorf("run mode left %d sessions resident", active)
	}
}

// TestGMRESSessionHonorsMaxIterations: a GMRES restart cycle stops at the
// session's iteration budget, so a solve that needs more than
// maxIterations ends done with exactly that many iterations — driven by
// iterates or by mode "run", whether the budget ends mid-cycle or not.
func TestGMRESSessionHonorsMaxIterations(t *testing.T) {
	_, ts := newTestServer(t, nil)
	a := spdBanded(t, 200, 5)
	id := uploadMatrix(t, ts, a)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = float64(i%7) + 1
	}
	for _, restart := range []int{0, 5} {
		body := fmt.Sprintf(`{"matrix":%q,"solver":"gmres","b":%s,"tol":1e-300,"maxIterations":7,"restart":%d`,
			id, floatsJSON(b), restart)
		t.Run(fmt.Sprintf("restart%d/iterate", restart), func(t *testing.T) {
			sid, _ := createSession(t, ts, body+"}")
			var st sessionStatus
			for k := 0; k < 10 && !st.Done; k++ {
				var code int
				if code, st = iterate(t, ts, sid, `{"steps":5}`); code != http.StatusOK {
					t.Fatalf("iterate: status %d", code)
				}
			}
			if !st.Done || st.Converged || st.Iterations != 7 {
				t.Errorf("done=%v converged=%v iterations=%d, want done after exactly 7", st.Done, st.Converged, st.Iterations)
			}
		})
		t.Run(fmt.Sprintf("restart%d/run", restart), func(t *testing.T) {
			resp, blob := doJSON(t, http.MethodPost, ts.URL+"/v1/solve", body+`,"mode":"run"}`)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("run status %d: %s", resp.StatusCode, blob)
			}
			lines := strings.Split(strings.TrimSpace(string(blob)), "\n")
			var final sessionStatus
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
				t.Fatalf("bad final line: %v", err)
			}
			if !final.Done || final.Converged || final.Iterations != 7 {
				t.Errorf("final line: done=%v converged=%v iterations=%d, want done after exactly 7", final.Done, final.Converged, final.Iterations)
			}
		})
	}
}

// TestSpMVSessionResidentScratch: an spmv session answers per-iterate
// products against the pinned plan, and its results match the matrix.
func TestSpMVSessionResidentScratch(t *testing.T) {
	_, ts := newTestServer(t, nil)
	a := spdBanded(t, 120, 3)
	id := uploadMatrix(t, ts, a)
	sid, _ := createSession(t, ts, fmt.Sprintf(`{"matrix":%q,"solver":"spmv"}`, id))

	v := make([]float64, a.Cols)
	for i := range v {
		v[i] = float64(i % 5)
	}
	code, st := iterate(t, ts, sid, fmt.Sprintf(`{"vector":%s}`, floatsJSON(v)))
	if code != http.StatusOK {
		t.Fatalf("iterate status %d", code)
	}
	want := make([]float64, a.Rows)
	a.MulVec(v, want)
	if len(st.Result) != len(want) {
		t.Fatalf("result length %d", len(st.Result))
	}
	for i := range want {
		if math.Abs(st.Result[i]-want[i]) > 1e-9*math.Max(1, math.Abs(want[i])) {
			t.Fatalf("result[%d] = %g, want %g", i, st.Result[i], want[i])
		}
	}
	// A vector-less iterate on an spmv session is a client error.
	if code, _ := iterate(t, ts, sid, `{}`); code != http.StatusBadRequest {
		t.Errorf("vector-less spmv iterate: status %d, want 400", code)
	}
}

// TestSessionLifecycle: GET reports status, DELETE releases, and both 404
// afterwards; a released session is not an eviction.
func TestSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, nil)
	a := spdBanded(t, 80, 3)
	id := uploadMatrix(t, ts, a)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	sid, _ := createSession(t, ts, fmt.Sprintf(`{"matrix":%q,"solver":"cg","b":%s}`, id, floatsJSON(b)))

	if _, st := iterate(t, ts, sid, `{"steps":3}`); st.Iterations != 3 {
		t.Fatalf("iterations %d, want 3", st.Iterations)
	}
	resp, blob := doJSON(t, http.MethodGet, ts.URL+"/v1/solve/"+sid, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET status %d", resp.StatusCode)
	}
	var st sessionStatus
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	if st.Iterations != 3 || len(st.X) != a.Rows || st.Solver != "cg" {
		t.Fatalf("GET state: %+v", st)
	}

	if resp, _ := doJSON(t, http.MethodDelete, ts.URL+"/v1/solve/"+sid, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status %d", resp.StatusCode)
	}
	if resp, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/solve/"+sid, ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET after release: status %d, want 404", resp.StatusCode)
	}
	if code, _ := iterate(t, ts, sid, `{}`); code != http.StatusNotFound {
		t.Fatalf("iterate after release: status %d, want 404", code)
	}
	if ev := scrapeMetric(t, ts, "spmvd_session_evictions_total"); ev != 0 {
		t.Errorf("client release counted as eviction: %d", ev)
	}
}

// TestSessionBreakdownIs422: CG on a non-SPD matrix breaks down; the
// session reports a well-formed 422 with class "breakdown" and stays
// broken (sticky) rather than pretending to continue.
func TestSessionBreakdownIs422(t *testing.T) {
	_, ts := newTestServer(t, nil)
	// Symmetric indefinite: off-diagonal dominance makes p^T A p go
	// negative almost immediately.
	coo := &sparse.COO{Rows: 32, Cols: 32}
	for i := 0; i < 32; i++ {
		coo.Add(i, i, -2)
		if i+1 < 32 {
			coo.Add(i, i+1, 1)
			coo.Add(i+1, i, 1)
		}
	}
	a, err := coo.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	id := uploadMatrix(t, ts, a)
	b := make([]float64, 32)
	for i := range b {
		b[i] = 1
	}
	sid, _ := createSession(t, ts, fmt.Sprintf(`{"matrix":%q,"solver":"cg","b":%s}`, id, floatsJSON(b)))
	code, blob := doJSON(t, http.MethodPost, ts.URL+"/v1/solve/"+sid+"/iterate", `{"steps":10}`)
	if code.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("breakdown status %d: %s", code.StatusCode, blob)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(blob, &e); err != nil || e.Error != "breakdown" {
		t.Fatalf("breakdown body %s", blob)
	}
	// Sticky: the next iterate reports the same breakdown.
	if code, _ := iterate(t, ts, sid, `{}`); code != http.StatusUnprocessableEntity {
		t.Fatalf("second iterate after breakdown: status %d, want 422", code)
	}
}

// TestSessionCapacityEvictsOldestIdle: at MaxSessions, creating one more
// evicts the oldest idle session (visible as a 404 on its next use and on
// the eviction counter).
func TestSessionCapacityEvictsOldestIdle(t *testing.T) {
	clock := &fakeClock{}
	_, ts := newTestServer(t, func(c *Config) {
		c.MaxSessions = 2
		c.Clock = clock.now
	})
	a := spdBanded(t, 60, 3)
	id := uploadMatrix(t, ts, a)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	mk := func() string {
		sid, _ := createSession(t, ts, fmt.Sprintf(`{"matrix":%q,"solver":"cg","b":%s}`, id, floatsJSON(b)))
		return sid
	}
	s1 := mk()
	clock.advance(time.Second)
	s2 := mk()
	clock.advance(time.Second)
	s3 := mk() // capacity 2: evicts s1, the oldest idle

	if code, _ := iterate(t, ts, s1, `{}`); code != http.StatusNotFound {
		t.Fatalf("evicted session s1 answers %d, want 404", code)
	}
	for _, sid := range []string{s2, s3} {
		if code, _ := iterate(t, ts, sid, `{}`); code != http.StatusOK {
			t.Fatalf("surviving session %s answers %d", sid, code)
		}
	}
	if ev := scrapeMetric(t, ts, "spmvd_session_evictions_total"); ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
}

// TestSessionDrain: after Drain, idle sessions are evicted and new
// creates are refused with 503, while stateless endpoints keep serving.
func TestSessionDrain(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	a := spdBanded(t, 60, 3)
	id := uploadMatrix(t, ts, a)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	createSession(t, ts, fmt.Sprintf(`{"matrix":%q,"solver":"cg","b":%s}`, id, floatsJSON(b)))
	if _, err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	if active := scrapeMetric(t, ts, "spmvd_sessions_active"); active != 0 {
		t.Fatalf("drain left %d sessions", active)
	}
	if ev := scrapeMetric(t, ts, "spmvd_session_evictions_total"); ev != 1 {
		t.Errorf("drain evictions = %d, want 1", ev)
	}
	resp, blob := doJSON(t, http.MethodPost, ts.URL+"/v1/solve",
		fmt.Sprintf(`{"matrix":%q,"solver":"cg","b":%s}`, id, floatsJSON(b)))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create while draining: status %d: %s", resp.StatusCode, blob)
	}
}

// TestSessionTTLEvictionStress races creates, iterates, status reads,
// releases and TTL sweeps (driven by a manual clock) against each other.
// Invariants: every response is one of the documented statuses, nothing
// panics, and once the clock has advanced past the TTL with no traffic,
// a sweep leaves zero resident sessions. The "Stress" suffix opts this
// test into the CI race-stress job.
func TestSessionTTLEvictionStress(t *testing.T) {
	clock := &fakeClock{}
	_, ts := newTestServer(t, func(c *Config) {
		c.MaxSessions = 8
		c.SessionTTL = 50 * time.Millisecond
		c.Clock = clock.now
	})
	a := spdBanded(t, 60, 3)
	id := uploadMatrix(t, ts, a)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	createBody := fmt.Sprintf(`{"matrix":%q,"solver":"cg","b":%s,"tol":1e-300,"maxIterations":100000}`, id, floatsJSON(b))

	// Warm the plan cache so the workers contend on sessions, not tuning.
	createSession(t, ts, createBody)

	var wg sync.WaitGroup
	var mu sync.Mutex
	ids := []string{}
	addID := func(sid string) {
		mu.Lock()
		ids = append(ids, sid)
		mu.Unlock()
	}
	randID := func(i int) string {
		mu.Lock()
		defer mu.Unlock()
		if len(ids) == 0 {
			return "sv-none"
		}
		return ids[i%len(ids)]
	}
	allowed := map[int]bool{
		http.StatusOK: true, http.StatusCreated: true,
		http.StatusNotFound: true, http.StatusConflict: true,
		http.StatusTooManyRequests: true,
	}
	check := func(op string, code int) {
		if !allowed[code] {
			t.Errorf("%s: unexpected status %d", op, code)
		}
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				switch (w + i) % 4 {
				case 0:
					resp, blob := doJSON(t, http.MethodPost, ts.URL+"/v1/solve", createBody)
					check("create", resp.StatusCode)
					if resp.StatusCode == http.StatusCreated {
						var st sessionStatus
						if json.Unmarshal(blob, &st) == nil {
							addID(st.Session)
						}
					}
				case 1:
					resp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/solve/"+randID(i)+"/iterate", `{"steps":2}`)
					check("iterate", resp.StatusCode)
				case 2:
					resp, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/solve/"+randID(i), "")
					check("get", resp.StatusCode)
				case 3:
					resp, _ := doJSON(t, http.MethodDelete, ts.URL+"/v1/solve/"+randID(i), "")
					check("delete", resp.StatusCode)
				}
				if i%5 == 0 {
					clock.advance(20 * time.Millisecond)
				}
			}
		}(w)
	}
	wg.Wait()

	// Quiesce: everything still resident is now idle; advancing past the
	// TTL and touching any session endpoint sweeps them all.
	clock.advance(time.Second)
	doJSON(t, http.MethodGet, ts.URL+"/v1/solve/sv-none", "")
	if active := scrapeMetric(t, ts, "spmvd_sessions_active"); active != 0 {
		t.Errorf("after TTL quiesce: %d sessions still resident", active)
	}
}
