package main

import "testing"

func TestParseMetrics(t *testing.T) {
	text := `
# a comment
spmvd_plan_cache_hits 41
spmvd_request_seconds_sum{endpoint="spmv"} 1.250000
spmvd_request_seconds_count{endpoint="spmv"} 50
spmvd_batch_flushes_total{trigger="size"} 7
spmvd_device_active_lane_ratio 0.845405
`
	m, err := parseMetrics(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 5 {
		t.Errorf("parsed %d series, want 5: %v", len(m), m)
	}
	if v, err := m.get(endpoint("spmvd_request_seconds_sum", "spmv")); err != nil || v != 1.25 {
		t.Errorf("labelled series = %v, %v; want 1.25", v, err)
	}
	if v := m[`spmvd_batch_flushes_total{trigger="size"}`]; v != 7 {
		t.Errorf("flushes = %v, want 7", v)
	}
	if _, err := m.get("spmvd_no_such_series"); err == nil {
		t.Error("a missing series must be an error, not zero")
	}
}

func TestParseMetricsRejectsGarbage(t *testing.T) {
	for _, text := range []string{"spmvd_plan_cache_hits", "spmvd_plan_cache_hits many"} {
		if _, err := parseMetrics(text); err == nil {
			t.Errorf("parseMetrics(%q) succeeded", text)
		}
	}
}

func TestMetricsDelta(t *testing.T) {
	before := metricsText{"a": 10, "b": 1}
	after := metricsText{"a": 25, "b": 1, "c": 3}
	d := after.delta(before)
	if d["a"] != 15 || d["b"] != 0 || d["c"] != 3 {
		t.Errorf("delta = %v", d)
	}
}
