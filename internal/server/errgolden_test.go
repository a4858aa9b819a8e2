package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"spmvtune/internal/matgen"
	"spmvtune/internal/mmio"
	"spmvtune/internal/sparse"
)

// TestErrorResponsesGolden drives every error path of the API and pins what
// the client sees — status, Content-Type, Retry-After and the body bytes —
// against constants printed by the server before its request lifecycle was
// unified. A refactor of the error writer, admission or session eviction
// must leave every one of them byte-identical; the constants are not to be
// regenerated to make this pass.
func TestErrorResponsesGolden(t *testing.T) {
	got := map[string]string{}
	var order []string
	call := func(name string, ts *httptest.Server, method, path, body string, declared bool) {
		t.Helper()
		var rd io.Reader = strings.NewReader(body)
		if !declared {
			rd = io.MultiReader(rd) // a type net/http cannot size: sent chunked
		}
		req, err := http.NewRequest(method, ts.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		got[name] = fmt.Sprintf("%d %s retry=%q\n%s", resp.StatusCode,
			resp.Header.Get("Content-Type"), resp.Header.Get("Retry-After"), blob)
		order = append(order, name)
	}
	do := func(name string, ts *httptest.Server, method, path, body string) {
		t.Helper()
		call(name, ts, method, path, body, true)
	}
	ones := func(n int) string { return floatsJSON(onesVec(n)) }

	// Lookups, sessions, breakdowns.
	clock := &fakeClock{}
	s, ts := newTestServer(t, func(c *Config) {
		c.Clock = clock.now
		c.SessionTTL = time.Minute
	})
	const unknown = "ffffffffffffffff"
	do("spmv/unknown-matrix", ts, "POST", "/v1/spmv", `{"matrix":"`+unknown+`","vector":[1]}`)
	do("solve/unknown-matrix", ts, "POST", "/v1/solve", `{"matrix":"`+unknown+`","solver":"cg","b":[1]}`)
	do("plans/unknown-matrix", ts, "GET", "/v1/plans/"+unknown, "")
	do("profiles/unknown-matrix", ts, "GET", "/v1/profiles/"+unknown, "")
	spd := spdBanded(t, 40, 3)
	id := uploadMatrix(t, ts, spd)
	do("profiles/before-run", ts, "GET", "/v1/profiles/"+id, "")

	for _, op := range [][2]string{{"iterate", "POST"}, {"get", "GET"}, {"delete", "DELETE"}} {
		path := "/v1/solve/sv-ffffffff"
		if op[0] == "iterate" {
			path += "/iterate"
		}
		do("session/unknown/"+op[0], ts, op[1], path, "")
	}
	cg := fmt.Sprintf(`{"matrix":%q,"solver":"cg","b":%s}`, id, ones(spd.Rows))
	released, _ := createSession(t, ts, cg)
	if resp, _ := doJSON(t, "DELETE", ts.URL+"/v1/solve/"+released, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("release status %d", resp.StatusCode)
	}
	evicted, _ := createSession(t, ts, cg)
	clock.advance(2 * time.Minute) // past the TTL: the next session operation sweeps it
	for _, sid := range [][2]string{{"released", released}, {"evicted", evicted}} {
		do("session/"+sid[0]+"/iterate", ts, "POST", "/v1/solve/"+sid[1]+"/iterate", "")
		do("session/"+sid[0]+"/get", ts, "GET", "/v1/solve/"+sid[1], "")
		do("session/"+sid[0]+"/delete", ts, "DELETE", "/v1/solve/"+sid[1], "")
	}

	busy, _ := createSession(t, ts, cg)
	sess, ok := s.session(busy)
	if !ok {
		t.Fatal("busy session not resident")
	}
	sess.mu.Lock() // an iterate in flight
	do("session/busy/iterate", ts, "POST", "/v1/solve/"+busy+"/iterate", "")
	sess.mu.Unlock()

	indef := uploadMatrix(t, ts, indefinite(t, 32))
	zeroDiag := uploadMatrix(t, ts, zeroDiagonal(t, 16))
	do("solve/breakdown-at-create", ts, "POST", "/v1/solve",
		fmt.Sprintf(`{"matrix":%q,"solver":"jacobi","b":%s}`, zeroDiag, ones(16)))
	broken, _ := createSession(t, ts, fmt.Sprintf(`{"matrix":%q,"solver":"cg","b":%s}`, indef, ones(32)))
	do("session/breakdown/iterate", ts, "POST", "/v1/solve/"+broken+"/iterate", `{"steps":10}`)
	do("session/breakdown/sticky", ts, "POST", "/v1/solve/"+broken+"/iterate", "")
	do("solve/run-breakdown-stream", ts, "POST", "/v1/solve",
		fmt.Sprintf(`{"matrix":%q,"solver":"cg","b":%s,"mode":"run"}`, indef, ones(32)))

	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	do("solve/draining", ts, "POST", "/v1/solve", cg)

	// Sessions full: the only resident session is busy.
	full, fts := newTestServer(t, func(c *Config) { c.MaxSessions = 1 })
	fid := uploadMatrix(t, fts, spd)
	fcg := fmt.Sprintf(`{"matrix":%q,"solver":"cg","b":%s}`, fid, ones(spd.Rows))
	held, _ := createSession(t, fts, fcg)
	hs, _ := full.session(held)
	hs.mu.Lock()
	do("solve/sessions-full", fts, "POST", "/v1/solve", fcg)
	hs.mu.Unlock()

	// Admission: all four admitted handlers with the queue full, then with
	// only the workers busy and a 1 ms deadline expiring in the queue.
	q, qts := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 1
	})
	qid := uploadMatrix(t, qts, spd)
	qsolver, _ := createSession(t, qts, fmt.Sprintf(`{"matrix":%q,"solver":"cg","b":%s}`, qid, ones(spd.Rows)))
	qspmv, _ := createSession(t, qts, fmt.Sprintf(`{"matrix":%q,"solver":"spmv"}`, qid))
	admitted := [][3]string{
		{"spmv", "/v1/spmv", fmt.Sprintf(`{"matrix":%q,"vector":%s%%s}`, qid, ones(spd.Cols))},
		{"solve", "/v1/solve", fmt.Sprintf(`{"matrix":%q,"solver":"cg","b":%s%%s}`, qid, ones(spd.Rows))},
		{"iterate", "/v1/solve/" + qsolver + "/iterate", `{"steps":1%s}`},
		{"iterate-spmv", "/v1/solve/" + qspmv + "/iterate", fmt.Sprintf(`{"vector":%s%%s}`, ones(spd.Cols))},
	}
	q.sem <- struct{}{}
	q.queue <- struct{}{}
	q.queue <- struct{}{}
	for _, h := range admitted {
		do(h[0]+"/queue-full", qts, "POST", h[1], fmt.Sprintf(h[2], ""))
	}
	<-q.queue
	for _, h := range admitted {
		do(h[0]+"/deadline-in-queue", qts, "POST", h[1], fmt.Sprintf(h[2], `,"timeoutMs":1`))
	}
	<-q.sem
	<-q.queue

	// 413: one body shape whether the length was declared or not.
	_, small := newTestServer(t, func(c *Config) { c.MaxBodyBytes = 64 })
	var mtx bytes.Buffer
	if err := mmio.Write(&mtx, matgen.Banded(100, 3, 1)); err != nil {
		t.Fatal(err)
	}
	oversized := fmt.Sprintf(`{"matrix":%q,"vector":%s}`, id, ones(64))
	for _, ep := range [][3]string{
		{"matrices", "/v1/matrices", mtx.String()},
		{"spmv", "/v1/spmv", oversized},
		{"solve", "/v1/solve", oversized},
		{"iterate", "/v1/solve/sv-00000001/iterate", oversized},
	} {
		for _, declared := range []bool{true, false} {
			call(fmt.Sprintf("%s/too-large/declared=%v", ep[0], declared), small, "POST", ep[1], ep[2], declared)
		}
	}

	for _, name := range order {
		want, ok := errorGolden[name]
		if !ok {
			t.Errorf("%s: no golden constant; got\n%q", name, got[name])
			continue
		}
		if got[name] != want {
			t.Errorf("%s:\n got %q\nwant %q", name, got[name], want)
		}
	}
	if len(order) != len(errorGolden) {
		t.Errorf("drove %d error paths, golden table has %d", len(order), len(errorGolden))
	}
}

func onesVec(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// indefinite is symmetric with a negative diagonal: CG's p^T A p goes
// negative at once, a breakdown on the first iterate.
func indefinite(t *testing.T, n int) *sparse.CSR {
	t.Helper()
	coo := &sparse.COO{Rows: n, Cols: n}
	for i := 0; i < n; i++ {
		coo.Add(i, i, -2)
		if i+1 < n {
			coo.Add(i, i+1, 1)
			coo.Add(i+1, i, 1)
		}
	}
	a, err := coo.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// zeroDiagonal is tridiagonal with row 3's diagonal missing: Jacobi cannot
// even start on it.
func zeroDiagonal(t *testing.T, n int) *sparse.CSR {
	t.Helper()
	coo := &sparse.COO{Rows: n, Cols: n}
	for i := 0; i < n; i++ {
		if i != 3 {
			coo.Add(i, i, 4)
		}
		if i+1 < n {
			coo.Add(i, i+1, -1)
			coo.Add(i+1, i, -1)
		}
	}
	a, err := coo.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// errorGolden was printed by the server at the parent of the request
// lifecycle rewrite. Do not edit.
var errorGolden = map[string]string{
	"spmv/unknown-matrix":               "404 application/json retry=\"\"\n{\"detail\":\"unknown matrix id ffffffffffffffff\",\"error\":\"not_found\"}\n",
	"solve/unknown-matrix":              "404 application/json retry=\"\"\n{\"detail\":\"unknown matrix id ffffffffffffffff\",\"error\":\"not_found\"}\n",
	"plans/unknown-matrix":              "404 application/json retry=\"\"\n{\"detail\":\"unknown matrix id ffffffffffffffff\",\"error\":\"not_found\"}\n",
	"profiles/unknown-matrix":           "404 application/json retry=\"\"\n{\"detail\":\"unknown matrix id ffffffffffffffff\",\"error\":\"not_found\"}\n",
	"profiles/before-run":               "404 application/json retry=\"\"\n{\"detail\":\"no execution profiled yet for matrix 3ec1752597e097a3 — POST /v1/spmv first\",\"error\":\"not_found\"}\n",
	"session/unknown/iterate":           "404 application/json retry=\"\"\n{\"detail\":\"unknown session sv-ffffffff\",\"error\":\"not_found\"}\n",
	"session/unknown/get":               "404 application/json retry=\"\"\n{\"detail\":\"unknown session sv-ffffffff\",\"error\":\"not_found\"}\n",
	"session/unknown/delete":            "404 application/json retry=\"\"\n{\"detail\":\"unknown session sv-ffffffff\",\"error\":\"not_found\"}\n",
	"session/released/iterate":          "404 application/json retry=\"\"\n{\"detail\":\"unknown session sv-00000001\",\"error\":\"not_found\"}\n",
	"session/released/get":              "404 application/json retry=\"\"\n{\"detail\":\"unknown session sv-00000001\",\"error\":\"not_found\"}\n",
	"session/released/delete":           "404 application/json retry=\"\"\n{\"detail\":\"unknown session sv-00000001\",\"error\":\"not_found\"}\n",
	"session/evicted/iterate":           "404 application/json retry=\"\"\n{\"detail\":\"unknown session sv-00000002\",\"error\":\"not_found\"}\n",
	"session/evicted/get":               "404 application/json retry=\"\"\n{\"detail\":\"unknown session sv-00000002\",\"error\":\"not_found\"}\n",
	"session/evicted/delete":            "404 application/json retry=\"\"\n{\"detail\":\"unknown session sv-00000002\",\"error\":\"not_found\"}\n",
	"session/busy/iterate":              "409 application/json retry=\"1\"\n{\"detail\":\"session sv-00000003 has an iterate in flight\",\"error\":\"busy\"}\n",
	"solve/breakdown-at-create":         "422 application/json retry=\"\"\n{\"detail\":\"solvers: breakdown: zero diagonal at row 3\",\"error\":\"breakdown\"}\n",
	"session/breakdown/iterate":         "422 application/json retry=\"\"\n{\"detail\":\"solvers: breakdown: p^T A p = -2 (matrix not SPD?)\",\"error\":\"breakdown\"}\n",
	"session/breakdown/sticky":          "422 application/json retry=\"\"\n{\"detail\":\"solvers: breakdown: p^T A p = -2 (matrix not SPD?)\",\"error\":\"breakdown\"}\n",
	"solve/run-breakdown-stream":        "200 application/x-ndjson retry=\"\"\n{\"detail\":\"solvers: breakdown: p^T A p = -2 (matrix not SPD?)\",\"error\":\"breakdown\"}\n",
	"solve/draining":                    "503 application/json retry=\"\"\n{\"detail\":\"server: draining — no new sessions: service unavailable\",\"error\":\"unavailable\"}\n",
	"solve/sessions-full":               "429 application/json retry=\"1\"\n{\"detail\":\"all 1 sessions busy\",\"error\":\"overloaded\"}\n",
	"spmv/queue-full":                   "429 application/json retry=\"1\"\n{\"detail\":\"worker queue full\",\"error\":\"overloaded\"}\n",
	"solve/queue-full":                  "429 application/json retry=\"1\"\n{\"detail\":\"worker queue full\",\"error\":\"overloaded\"}\n",
	"iterate/queue-full":                "429 application/json retry=\"1\"\n{\"detail\":\"worker queue full\",\"error\":\"overloaded\"}\n",
	"iterate-spmv/queue-full":           "429 application/json retry=\"1\"\n{\"detail\":\"worker queue full\",\"error\":\"overloaded\"}\n",
	"spmv/deadline-in-queue":            "504 application/json retry=\"\"\n{\"detail\":\"execution canceled: context deadline exceeded\",\"error\":\"canceled\"}\n",
	"solve/deadline-in-queue":           "504 application/json retry=\"\"\n{\"detail\":\"execution canceled: context deadline exceeded\",\"error\":\"canceled\"}\n",
	"iterate/deadline-in-queue":         "504 application/json retry=\"\"\n{\"detail\":\"execution canceled: context deadline exceeded\",\"error\":\"canceled\"}\n",
	"iterate-spmv/deadline-in-queue":    "504 application/json retry=\"\"\n{\"detail\":\"execution canceled: context deadline exceeded\",\"error\":\"canceled\"}\n",
	"matrices/too-large/declared=true":  "413 application/json retry=\"\"\n{\"detail\":\"body exceeds 64 bytes\",\"error\":\"invalid\"}\n",
	"matrices/too-large/declared=false": "413 application/json retry=\"\"\n{\"detail\":\"body exceeds 64 bytes\",\"error\":\"invalid\"}\n",
	"spmv/too-large/declared=true":      "413 application/json retry=\"\"\n{\"detail\":\"body exceeds 64 bytes\",\"error\":\"invalid\"}\n",
	"spmv/too-large/declared=false":     "413 application/json retry=\"\"\n{\"detail\":\"body exceeds 64 bytes\",\"error\":\"invalid\"}\n",
	"solve/too-large/declared=true":     "413 application/json retry=\"\"\n{\"detail\":\"body exceeds 64 bytes\",\"error\":\"invalid\"}\n",
	"solve/too-large/declared=false":    "413 application/json retry=\"\"\n{\"detail\":\"body exceeds 64 bytes\",\"error\":\"invalid\"}\n",
	"iterate/too-large/declared=true":   "413 application/json retry=\"\"\n{\"detail\":\"body exceeds 64 bytes\",\"error\":\"invalid\"}\n",
	"iterate/too-large/declared=false":  "413 application/json retry=\"\"\n{\"detail\":\"body exceeds 64 bytes\",\"error\":\"invalid\"}\n",
}
