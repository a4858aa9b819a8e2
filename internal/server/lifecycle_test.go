package server

import (
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
