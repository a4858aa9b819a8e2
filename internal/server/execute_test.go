package server

import (
	"context"
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
	"spmvtune/internal/solvers"
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

// A fault armed on a warm session still reaches the verified fallback chain:
// once clean CG iterates replay the plan's launches, a persistent NaN poison
// on the plan's bins bypasses the replay memo, so the uncoalesced iterate
// simulates, fails verification and is served down the chain — degraded,
// with no launch replayed, and with an x that still matches CG run
// in-process on MulVec.
func TestWarmSessionFaultReachesVerifiedChain(t *testing.T) {
	var faults atomic.Pointer[hsa.FaultPlan]
	_, ts := newTestServer(t, func(c *Config) {
		c.Framework = core.NewFramework(c.Framework.Cfg, c.Framework.Model())
		c.Guard.Backoff = -1
		c.FaultHook = func() *hsa.FaultPlan { return faults.Load() }
	})
	a := spdBanded(t, 200, 5)
	id := uploadMatrix(t, ts, a)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = float64(i%7) + 1
	}
	sid, _ := createSession(t, ts, fmt.Sprintf(
		`{"matrix":%q,"solver":"cg","b":%s,"tol":1e-300,"maxIterations":100}`, id, floatsJSON(b)))
	for k := 0; k < 3; k++ {
		if code, st := iterate(t, ts, sid, `{"steps":4}`); code != http.StatusOK || st.Degraded {
			t.Fatalf("clean iterate %d: status %d, degraded=%v", k, code, st.Degraded)
		}
	}
	replayed := scrapeMetric(t, ts, "spmvd_launch_replayed_total")
	if replayed == 0 {
		t.Fatal("clean iterates replayed no launch: the plan is not warm")
	}

	// Every bin is armed, so no launch of the iterate may take the memo.
	fp := hsa.NewFaultPlan()
	for _, ba := range warmPlan(t, ts, id).Bins {
		fp.AddBinFault(ba.Bin, hsa.Fault{Class: hsa.FaultNaNPoison})
	}
	faults.Store(fp)
	code, st := iterate(t, ts, sid, `{"steps":4}`)
	if code != http.StatusOK || !st.Degraded {
		t.Fatalf("faulted iterate: status %d, degraded=%v, want 200/true", code, st.Degraded)
	}
	if got := scrapeMetric(t, ts, "spmvd_launch_replayed_total"); got != replayed {
		t.Errorf("%d launches replayed under the armed fault, want 0", got-replayed)
	}

	resp, blob := doJSON(t, http.MethodGet, ts.URL+"/v1/solve/"+sid, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET status %d: %s", resp.StatusCode, blob)
	}
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a.Rows)
	// The unreachable tolerance makes the in-process solve end not-converged
	// after the session's iteration count; its error says only that.
	res, _ := solvers.CGCtx(context.Background(), func(v, u []float64) { a.MulVec(v, u) }, b, x, 1e-300, st.Iterations)
	if res.Iterations != st.Iterations || st.Iterations != 16 {
		t.Fatalf("iterations: session %d, in-process %d, want 16", st.Iterations, res.Iterations)
	}
	if i := sparse.FirstVecDiff(x, st.X, 1e-9); i >= 0 {
		t.Errorf("x differs from in-process CG at row %d: %v vs %v", i, st.X[i], x[i])
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
