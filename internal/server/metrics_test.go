package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"spmvtune/internal/core"
	"spmvtune/internal/matgen"
	"spmvtune/internal/plan"
	"spmvtune/internal/trace"
)

// metricFamilies is the exposition contract: every family name the daemon
// promises scrapers, in the order and label shape it emits them. Renaming
// or dropping any of these is a breaking change — add new families instead.
var metricFamilies = []string{
	`spmvd_plan_cache_hits `,
	`spmvd_plan_cache_misses `,
	`spmvd_plan_cache_disk_hits `,
	`spmvd_plan_cache_evictions `,
	`spmvd_plan_cache_expirations `,
	`spmvd_plan_cache_entries `,
	`spmvd_plan_cache_persist_errors `,
	`spmvd_plan_cache_quarantined `,
	`spmvd_plan_cache_stale_evictions `,
	`spmvd_tune_seconds_sum `,
	`spmvd_tune_seconds_count `,
	`spmvd_search_cache_hits `,
	`spmvd_search_cache_misses `,
	`spmvd_search_cache_pruned `,
	`spmvd_search_space_cells `,
	`spmvd_search_synth_wins_total `,
	`spmvd_launch_simulated_total `,
	`spmvd_launch_replayed_total `,
	`spmvd_matrices_stored `,
	`spmvd_sessions_active `,
	`spmvd_recycled_bytes `,
	`spmvd_batched_requests_total `,
	`spmvd_batch_size_sum `,
	`spmvd_batch_size_count `,
	`spmvd_batch_flushes_total{trigger="window"} `,
	`spmvd_batch_flushes_total{trigger="size"} `,
	`spmvd_session_iterations_total `,
	`spmvd_session_evictions_total `,
	`spmvd_session_retunes_total `,
	`spmvd_requests_total{endpoint="matrices"} `,
	`spmvd_requests_total{endpoint="spmv"} `,
	`spmvd_requests_total{endpoint="solve"} `,
	`spmvd_requests_total{endpoint="iterate"} `,
	`spmvd_requests_total{endpoint="session"} `,
	`spmvd_requests_total{endpoint="plans"} `,
	`spmvd_requests_total{endpoint="profiles"} `,
	`spmvd_requests_total{endpoint="healthz"} `,
	`spmvd_requests_total{endpoint="readyz"} `,
	`spmvd_requests_total{endpoint="metrics"} `,
	`spmvd_request_errors_total{endpoint="spmv"} `,
	`spmvd_request_seconds_sum{endpoint="spmv"} `,
	`spmvd_request_seconds_count{endpoint="spmv"} `,
	`spmvd_rejected_total `,
	`spmvd_canceled_total `,
	`spmvd_inflight `,
	`spmvd_spmv_vectors_total `,
	`spmvd_degraded_runs_total `,
	`spmvd_degraded_total `,
	`spmvd_breaker_trips_total `,
	`spmvd_breaker_half_open_probes_total `,
	`spmvd_panics_recovered_total `,
	`spmvd_breaker_open `,
	`spmvd_breaker_half_open `,
	`spmvd_model_version `,
	`spmvd_model_regret `,
	`spmvd_retrain_rows_total `,
	`spmvd_retrain_runs_total `,
	`spmvd_retrain_promotions_total `,
	`spmvd_retrain_rejected_total `,
	`spmvd_device_cycles_total `,
	`spmvd_device_mem_instrs_total `,
	`spmvd_device_lane_slots_total `,
	`spmvd_device_active_lanes_total `,
	`spmvd_device_active_lane_ratio `,
	`spmvd_device_lds_reads_total `,
	`spmvd_device_lds_writes_total `,
	`spmvd_device_lds_bank_conflicts_total `,
	`spmvd_device_barrier_waits_total `,
	`spmvd_device_workgroups_total `,
	`spmvd_decode_seconds_sum{endpoint="spmv"} `,
	`spmvd_decode_seconds_sum{endpoint="solve"} `,
	`spmvd_decode_seconds_sum{endpoint="iterate"} `,
	`spmvd_decode_seconds_count{endpoint="spmv"} `,
	`spmvd_decode_seconds_count{endpoint="solve"} `,
	`spmvd_decode_seconds_count{endpoint="iterate"} `,
	`spmvd_decode_fallback_total `,
	`spmvd_decode_seconds_sum{endpoint="upload"} `,
	`spmvd_decode_seconds_count{endpoint="upload"} `,
}

// TestMetricsExpositionGoldenNames locks the exposition format: every
// promised family is present, and the seconds sum/count pair is complete
// for every endpoint (the count is what lets scrapers form an average —
// a sum without a count is unusable).
func TestMetricsExpositionGoldenNames(t *testing.T) {
	_, ts := newTestServer(t, nil)
	a := matgen.Banded(64, 3, 1)
	id := uploadMatrix(t, ts, a)
	vec := fmt.Sprintf(`{"matrix":%q,"vector":%s}`, id, onesJSON(a.Cols))
	if resp, body := postSpMV(t, ts, vec); resp.StatusCode != http.StatusOK {
		t.Fatalf("spmv status %d: %s", resp.StatusCode, body)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, _ := io.ReadAll(resp.Body)
	out := string(blob)
	for _, fam := range metricFamilies {
		if !strings.Contains(out, "\n"+fam) && !strings.HasPrefix(out, fam) {
			t.Errorf("exposition missing family %q", strings.TrimRight(fam, " "))
		}
	}
	// Every endpoint's sum must have a matching count.
	for _, ep := range endpointNames {
		sum := fmt.Sprintf("spmvd_request_seconds_sum{endpoint=%q} ", ep)
		count := fmt.Sprintf("spmvd_request_seconds_count{endpoint=%q} ", ep)
		if strings.Contains(out, sum) != strings.Contains(out, count) {
			t.Errorf("endpoint %q: seconds sum/count pair incomplete", ep)
		}
	}
}

// TestMetricsLaunchCounters: on a cold framework the first request of a plan
// simulates each of its bins once and every later one replays them — the
// pair an operator reads to tell a cold plan from a warm one.
func TestMetricsLaunchCounters(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.Framework = core.NewFramework(c.Framework.Cfg, c.Framework.Model())
	})
	a := matgen.Banded(64, 3, 1)
	id := uploadMatrix(t, ts, a)
	for i := 0; i < 3; i++ {
		vec := fmt.Sprintf(`{"matrix":%q,"vector":%s}`, id, onesJSON(a.Cols))
		if resp, body := postSpMV(t, ts, vec); resp.StatusCode != http.StatusOK {
			t.Fatalf("spmv status %d: %s", resp.StatusCode, body)
		}
	}
	simulated := scrapeMetric(t, ts, `spmvd_launch_simulated_total`)
	replayed := scrapeMetric(t, ts, `spmvd_launch_replayed_total`)
	if simulated < 1 || replayed != 2*simulated {
		t.Errorf("launches: %d simulated, %d replayed, want replayed = 2 x simulated", simulated, replayed)
	}
}

// TestMetricsSecondsCountMatchesRequests: the latency count equals the
// request total per endpoint — each request contributes one observation.
func TestMetricsSecondsCountMatchesRequests(t *testing.T) {
	_, ts := newTestServer(t, nil)
	a := matgen.Banded(64, 3, 1)
	id := uploadMatrix(t, ts, a)
	for i := 0; i < 3; i++ {
		vec := fmt.Sprintf(`{"matrix":%q,"vector":%s}`, id, onesJSON(a.Cols))
		if resp, body := postSpMV(t, ts, vec); resp.StatusCode != http.StatusOK {
			t.Fatalf("spmv status %d: %s", resp.StatusCode, body)
		}
	}
	requests := scrapeMetric(t, ts, `spmvd_requests_total{endpoint="spmv"}`)
	count := scrapeMetric(t, ts, `spmvd_request_seconds_count{endpoint="spmv"}`)
	if requests != 3 || count != requests {
		t.Errorf("requests=%d seconds_count=%d, want equal (3)", requests, count)
	}
}

// TestDeviceCounterGauges: executing SpMV populates the counter-derived
// gauges — nonzero cycles, memory instructions and a lane ratio in (0,1].
func TestDeviceCounterGauges(t *testing.T) {
	_, ts := newTestServer(t, nil)
	a := matgen.Banded(128, 5, 2)
	id := uploadMatrix(t, ts, a)
	vec := fmt.Sprintf(`{"matrix":%q,"vector":%s}`, id, onesJSON(a.Cols))
	if resp, body := postSpMV(t, ts, vec); resp.StatusCode != http.StatusOK {
		t.Fatalf("spmv status %d: %s", resp.StatusCode, body)
	}
	if got := scrapeMetric(t, ts, "spmvd_device_cycles_total"); got <= 0 {
		t.Errorf("device cycles = %d, want > 0", got)
	}
	if got := scrapeMetric(t, ts, "spmvd_device_mem_instrs_total"); got <= 0 {
		t.Errorf("device mem instrs = %d, want > 0", got)
	}
	slots := scrapeMetric(t, ts, "spmvd_device_lane_slots_total")
	active := scrapeMetric(t, ts, "spmvd_device_active_lanes_total")
	if slots <= 0 || active <= 0 || active > slots {
		t.Errorf("lane slots=%d active=%d, want 0 < active <= slots", slots, active)
	}
}

// TestRecycledBytesGauge: /metrics reports what the recycler holds — once a
// request has given its buffers back, more than nothing and at most the
// three classes' bounds.
func TestRecycledBytesGauge(t *testing.T) {
	_, ts := newTestServer(t, nil)
	a := matgen.Banded(64, 3, 1)
	id := uploadMatrix(t, ts, a)
	if resp, body := postSpMV(t, ts, fmt.Sprintf(`{"matrix":%q,"vector":%s}`, id, onesJSON(a.Cols))); resp.StatusCode != http.StatusOK {
		t.Fatalf("spmv status %d: %s", resp.StatusCode, body)
	}
	if got := scrapeMetric(t, ts, "spmvd_recycled_bytes"); got <= 0 || got > 3*classBytes {
		t.Errorf("spmvd_recycled_bytes = %d, want in (0, %d]", got, 3*classBytes)
	}
}

// TestProfilesEndpoint: GET /v1/profiles/{id} is 404 before any execution,
// then returns the plan with per-bin profiles attached, each with nonzero
// cycles and a lane ratio in (0,1].
func TestProfilesEndpoint(t *testing.T) {
	var traced bytes.Buffer
	tw := trace.NewDeterministicWriter(&traced)
	_, ts := newTestServer(t, func(c *Config) { c.Trace = tw })
	a := matgen.Banded(128, 5, 2)
	id := uploadMatrix(t, ts, a)

	resp, err := http.Get(ts.URL + "/v1/profiles/" + id)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("profiles before execution: status %d, want 404", resp.StatusCode)
	}

	vec := fmt.Sprintf(`{"matrix":%q,"vector":%s,"traceId":"req-7"}`, id, onesJSON(a.Cols))
	sresp, body := postSpMV(t, ts, vec)
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("spmv status %d: %s", sresp.StatusCode, body)
	}
	var sr struct {
		TraceID string `json:"traceId"`
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.TraceID != "req-7" {
		t.Errorf("response traceId = %q, want req-7", sr.TraceID)
	}

	resp, err = http.Get(ts.URL + "/v1/profiles/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		blob, _ := io.ReadAll(resp.Body)
		t.Fatalf("profiles status %d: %s", resp.StatusCode, blob)
	}
	var pr struct {
		Matrix  string           `json:"matrix"`
		TraceID string           `json:"traceId"`
		Plan    *plan.TuningPlan `json:"plan"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if pr.Matrix != id || pr.TraceID != "req-7" || pr.Plan == nil {
		t.Fatalf("profiles response: %+v", pr)
	}
	if len(pr.Plan.Profiles) == 0 {
		t.Fatal("plan carries no profiles")
	}
	for i, p := range pr.Plan.Profiles {
		if p.Cycles <= 0 {
			t.Errorf("profile %d: cycles = %v, want > 0", i, p.Cycles)
		}
		if r := p.ActiveLaneRatio(); r <= 0 || r > 1 {
			t.Errorf("profile %d: lane ratio = %v, want in (0,1]", i, r)
		}
	}

	// The request's spans landed in the server's trace stream under its ID.
	if !strings.Contains(traced.String(), `"trace":"req-7"`) {
		t.Errorf("trace stream missing request spans:\n%s", traced.String())
	}
	if !strings.Contains(traced.String(), `"name":"execute-bin"`) {
		t.Errorf("trace stream missing execute-bin spans:\n%s", traced.String())
	}
}

// onesJSON renders a ones-vector of length n as a JSON array.
func onesJSON(n int) string {
	var sb strings.Builder
	sb.WriteByte('[')
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteByte('1')
	}
	sb.WriteByte(']')
	return sb.String()
}
