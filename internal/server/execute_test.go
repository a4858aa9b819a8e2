package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"spmvtune/internal/core"
	"spmvtune/internal/hsa"
	"spmvtune/internal/matgen"
	"spmvtune/internal/sparse"
)

// getProfiles fetches GET /v1/profiles/{id}.
func getProfiles(t *testing.T, ts *httptest.Server, id string) profilesResponse {
	t.Helper()
	resp, blob := doJSON(t, http.MethodGet, ts.URL+"/v1/profiles/"+id, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profiles status %d: %s", resp.StatusCode, blob)
	}
	var out profilesResponse
	if err := json.Unmarshal(blob, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// A model that cannot decide (here: none at all, so the predict path
// panics) yields the serial fallback plan. Serving from it is a degraded
// answer and must say so — not a clean 200 on every request.
func TestMalformedModelPlanAnswersDegraded(t *testing.T) {
	fw := core.NewFramework(testFramework(t).Cfg, nil)
	_, ts := newTestServer(t, func(c *Config) { c.Framework = fw })
	a := matgen.Mixed(400, 400, 20, []int{2, 50}, 3)
	id := uploadMatrix(t, ts, a)
	v := make([]float64, a.Cols)
	for i := range v {
		v[i] = float64(i%9) - 4
	}
	want := make([]float64, a.Rows)
	a.MulVec(v, want)

	for run := 0; run < 2; run++ { // a cache hit on the fallback plan is no cleaner
		resp, blob := postSpMV(t, ts, fmt.Sprintf(`{"matrix":%q,"vector":%s}`, id, floatsJSON(v)))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: status %d: %s", run, resp.StatusCode, blob)
		}
		var out spmvResponse
		if err := json.Unmarshal(blob, &out); err != nil {
			t.Fatal(err)
		}
		if !out.Degraded {
			t.Errorf("run %d: fallback-plan execution answered degraded:false", run)
		}
		if i := sparse.FirstVecDiff(want, out.Result, 1e-9); i >= 0 {
			t.Errorf("run %d: result wrong at row %d", run, i)
		}
	}
	if got := scrapeMetric(t, ts, "spmvd_degraded_runs_total"); got != 2 {
		t.Errorf("spmvd_degraded_runs_total = %d, want 2", got)
	}
	if !getProfiles(t, ts, id).Degraded {
		t.Error("profile record of a fallback-plan execution says degraded:false")
	}
}

// The evidence an execution leaves (GET /v1/profiles, the retrain feed) is
// judged by that execution alone, on every path: a transient fault on a
// session's first iterate marks that iterate's evidence degraded, and the
// clean second iterate's evidence clean — even though the session's own
// degraded flag stays sticky.
func TestSessionEvidenceIsPerExecution(t *testing.T) {
	for _, tc := range []struct {
		name   string
		window time.Duration
	}{{"uncoalesced", 0}, {"batch-window", 10 * time.Millisecond}} {
		t.Run(tc.name, func(t *testing.T) {
			var hooks atomic.Int64
			_, ts := newTestServer(t, func(c *Config) {
				c.BatchWindow = tc.window
				c.Guard.Backoff = -1
				// Every launch site of the first execution fails once; its
				// retry, and every later execution, runs clean.
				c.FaultHook = func() *hsa.FaultPlan {
					if hooks.Add(1) > 1 {
						return nil
					}
					return hsa.NewFaultPlan().AddFault(hsa.Fault{Class: hsa.FaultNaNPoison, Transient: 1})
				}
			})
			a := spdBanded(t, 150, 3)
			id := uploadMatrix(t, ts, a)
			sid, _ := createSession(t, ts, fmt.Sprintf(`{"matrix":%q,"solver":"spmv"}`, id))
			v := make([]float64, a.Cols)
			for i := range v {
				v[i] = float64(i%5) + 1
			}
			body := fmt.Sprintf(`{"vector":%s}`, floatsJSON(v))

			code, st := iterate(t, ts, sid, body)
			if code != http.StatusOK || !st.Degraded {
				t.Fatalf("faulted iterate: status %d, session degraded=%v, want 200/true", code, st.Degraded)
			}
			if !getProfiles(t, ts, id).Degraded {
				t.Error("evidence of the faulted iterate says degraded:false")
			}

			code, st = iterate(t, ts, sid, body)
			if code != http.StatusOK || !st.Degraded {
				t.Fatalf("clean iterate: status %d, session degraded=%v, want 200 and the sticky true", code, st.Degraded)
			}
			if getProfiles(t, ts, id).Degraded {
				t.Error("evidence of the clean second iterate says degraded:true: the session's sticky flag leaked into it")
			}
		})
	}
}

// Every execution leaves evidence, not just a request's last: an
// uncoalesced two-vector request is two width-1 executions, and the profile
// record holds both runs' bins.
func TestEveryExecutionIsRecorded(t *testing.T) {
	_, ts := newTestServer(t, nil)
	a := matgen.Mixed(400, 400, 20, []int{2, 50}, 5)
	id := uploadMatrix(t, ts, a)
	v := make([]float64, a.Cols)
	for i := range v {
		v[i] = 1
	}
	resp, blob := postSpMV(t, ts, fmt.Sprintf(`{"matrix":%q,"vectors":[%s,%s]}`, id, floatsJSON(v), floatsJSON(v)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, blob)
	}
	pr := getProfiles(t, ts, id)
	if bins := len(pr.Plan.Bins); len(pr.Plan.Profiles) != 2*bins {
		t.Errorf("%d profiles recorded for 2 executions of a %d-bin plan, want %d", len(pr.Plan.Profiles), bins, 2*bins)
	}
}
