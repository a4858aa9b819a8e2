package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"spmvtune/internal/solvers"
)

// TestErrorClassServerLocal is TestErrorClassExhaustive's sibling for the
// classes the server answers itself: each maps to its deliberate status
// through errorClass, bare and wrapped alike.
func TestErrorClassServerLocal(t *testing.T) {
	for _, tc := range []struct {
		err    error
		name   string
		status int
	}{
		{notFound("unknown matrix id %s", "ffffffffffffffff"), "not_found", http.StatusNotFound},
		{busy("session %s has an iterate in flight", "sv-00000001"), "busy", http.StatusConflict},
		{overloaded("worker queue full"), "overloaded", http.StatusTooManyRequests},
		{tooLarge(&http.MaxBytesError{Limit: 64}), "invalid", http.StatusRequestEntityTooLarge},
		{solvers.ErrBreakdown, "breakdown", http.StatusUnprocessableEntity},
	} {
		for _, err := range []error{tc.err, fmt.Errorf("somewhere deep: %w", tc.err)} {
			name, status := errorClass(err)
			if name != tc.name || status != tc.status {
				t.Errorf("errorClass(%v) = (%q, %d), want (%q, %d)", err, name, status, tc.name, tc.status)
			}
		}
	}
	if err := tooLarge(&http.MaxBytesError{Limit: 64}); err.Error() != "body exceeds 64 bytes" {
		t.Errorf("413 detail %q", err)
	}
}

// TestStreamedSolveFailureCounted: a mode-run solve that breaks down after
// its 200 header has gone out ends the stream with the error line and is
// accounted as a failed request, not a success.
func TestStreamedSolveFailureCounted(t *testing.T) {
	_, ts := newTestServer(t, nil)
	id := uploadMatrix(t, ts, indefinite(t, 32))
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(
		fmt.Sprintf(`{"matrix":%q,"solver":"cg","b":%s,"mode":"run"}`, id, floatsJSON(onesVec(32)))))
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.HasSuffix(string(blob), `"error":"breakdown"}`+"\n") {
		t.Fatalf("run-mode breakdown: status %d body %s", resp.StatusCode, blob)
	}
	if got := scrapeMetric(t, ts, `spmvd_request_errors_total{endpoint="solve"}`); got != 1 {
		t.Errorf(`spmvd_request_errors_total{endpoint="solve"} = %d, want 1`, got)
	}
}

// TestNonFiniteResultIsAnError: a result JSON cannot carry — a NaN or Inf
// the matrix itself holds or an overflowing product — is answered 400
// invalid on spmv and iterate, and ends a run-mode stream with the error
// line, instead of a 200 with nothing (or nothing more) in its body.
func TestNonFiniteResultIsAnError(t *testing.T) {
	_, ts := newTestServer(t, nil)
	upload := func(entries string) string {
		t.Helper()
		resp, blob := doJSON(t, http.MethodPost, ts.URL+"/v1/matrices",
			"%%MatrixMarket matrix coordinate real general\n"+entries)
		var out struct{ ID string }
		if err := json.Unmarshal(blob, &out); resp.StatusCode != http.StatusCreated || err != nil {
			t.Fatalf("upload: status %d body %s", resp.StatusCode, blob)
		}
		return out.ID
	}
	// Distinct structures: an upload's ID is its pattern's fingerprint.
	huge := upload("2 2 2\n1 1 1e308\n2 2 1\n")
	nan := upload("2 2 1\n1 1 nan\n")
	wantInvalid := func(t *testing.T, status int, blob []byte) {
		t.Helper()
		var body struct{ Error, Detail string }
		if err := json.Unmarshal(blob, &body); status != http.StatusBadRequest || err != nil ||
			body.Error != "invalid" || !strings.Contains(body.Detail, "not finite") {
			t.Errorf("status %d body %q, want 400 invalid naming the non-finite result", status, blob)
		}
	}

	t.Run("spmv", func(t *testing.T) {
		for _, body := range []string{
			fmt.Sprintf(`{"matrix":%q,"vector":[1e308,1]}`, huge),
			fmt.Sprintf(`{"matrix":%q,"vector":[1,1]}`, nan),
		} {
			resp, blob := postSpMV(t, ts, body)
			wantInvalid(t, resp.StatusCode, blob)
		}
	})
	t.Run("iterate", func(t *testing.T) {
		sid, _ := createSession(t, ts, fmt.Sprintf(`{"matrix":%q,"solver":"spmv"}`, huge))
		resp, blob := doJSON(t, http.MethodPost, ts.URL+"/v1/solve/"+sid+"/iterate", `{"vector":[1e308,1]}`)
		wantInvalid(t, resp.StatusCode, blob)
	})
	t.Run("run", func(t *testing.T) {
		before := scrapeMetric(t, ts, `spmvd_request_errors_total{endpoint="solve"}`)
		resp, blob := doJSON(t, http.MethodPost, ts.URL+"/v1/solve",
			fmt.Sprintf(`{"matrix":%q,"solver":"cg","b":[1,1],"maxIterations":5,"mode":"run"}`, nan))
		stream := strings.TrimSuffix(string(blob), "\n")
		last := stream[strings.LastIndex(stream, "\n")+1:] + "\n"
		if resp.StatusCode != http.StatusOK || !strings.HasSuffix(last, `"error":"invalid"}`+"\n") || !strings.Contains(last, "not finite") {
			t.Errorf("run stream: status %d body %q, want the invalid error line last", resp.StatusCode, blob)
		}
		if got := scrapeMetric(t, ts, `spmvd_request_errors_total{endpoint="solve"}`); got != before+1 {
			t.Errorf(`spmvd_request_errors_total{endpoint="solve"} = %d, want %d`, got, before+1)
		}
	})
}
