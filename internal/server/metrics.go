package server

import (
	"fmt"
	"io"
	"sync/atomic"

	"spmvtune/internal/core"
)

// Endpoint indices for the per-endpoint counters.
const (
	epMatrices = iota
	epSpMV
	epSolve
	epIterate
	epSession
	epPlans
	epProfiles
	epHealthz
	epReadyz
	epMetrics
	nEndpoints
)

var endpointNames = [nEndpoints]string{"matrices", "spmv", "solve", "iterate", "session", "plans", "profiles", "healthz", "readyz", "metrics"}

// metrics holds the server-side counters. Everything is atomic so the
// handlers never serialize on observability.
type metrics struct {
	requests  [nEndpoints]atomic.Int64
	errors    [nEndpoints]atomic.Int64
	latencyNs [nEndpoints]atomic.Int64

	rejected atomic.Int64 // 429s from queue overflow
	canceled atomic.Int64 // requests ended by deadline/cancellation
	inflight atomic.Int64
	vectors  atomic.Int64 // SpMV right-hand sides served
	degraded atomic.Int64 // guarded runs that needed the fallback chain

	// Robustness counters: breaker-degraded responses served instead of
	// 5xx, breaker trips and half-open probes, and panics contained at
	// the server boundary.
	degradedServed atomic.Int64
	breakerTrips   atomic.Int64
	breakerProbes  atomic.Int64
	panics         atomic.Int64

	// Batch-coalescer counters: requests served through a fused
	// multi-vector launch, the size distribution of those launches as a
	// histogram-style sum/count pair, and flushes split by trigger (the
	// window timer fired vs the batch hit -max-batch and flushed early).
	batchedRequests  atomic.Int64
	batchSizeSum     atomic.Int64
	batchSizeCount   atomic.Int64
	batchFlushWindow atomic.Int64
	batchFlushSize   atomic.Int64

	// Solver-session counters: stepper iterations served across all
	// sessions, sessions evicted (TTL, capacity, or drain — client
	// releases are not evictions), and plan re-pins paid at iteration
	// boundaries after a model hot-swap.
	sessionIterations atomic.Int64
	sessionEvictions  atomic.Int64
	sessionRetunes    atomic.Int64

	// Decode stage of the JSON endpoints (spmv, solve, iterate) and of
	// uploads: requests validated (for an upload: its CSR built) and the time
	// from handler entry to that point — body read plus decode — and JSON
	// bodies outside the scanner's canonical subset, which encoding/json
	// decoded instead.
	decodes         [nEndpoints]atomic.Int64
	decodeNs        [nEndpoints]atomic.Int64
	decodeFallbacks atomic.Int64

	// Device-counter derived totals, accumulated from the per-run
	// ExecReport of every guarded execution. Cycles are modeled device
	// cycles (deterministic per launch), the rest are the hsa.Counters
	// families summed over accepted launches.
	deviceCycles       atomic.Int64
	deviceMemInstrs    atomic.Int64
	deviceLaneSlots    atomic.Int64
	deviceActiveLanes  atomic.Int64
	deviceLDSReads     atomic.Int64
	deviceLDSWrites    atomic.Int64
	deviceLDSConflicts atomic.Int64
	deviceBarrierWaits atomic.Int64
	deviceWorkGroups   atomic.Int64
}

// observeReport folds one guarded run's device activity into the
// counter-derived gauges.
func (m *metrics) observeReport(rep *core.ExecReport) {
	m.deviceCycles.Add(int64(rep.Stats.Cycles))
	if !rep.CountersEnabled {
		return
	}
	c := rep.Counters
	m.deviceMemInstrs.Add(c.MemInstrs)
	m.deviceLaneSlots.Add(c.LaneSlots)
	m.deviceActiveLanes.Add(c.ActiveLanes)
	m.deviceLDSReads.Add(c.LDSReads)
	m.deviceLDSWrites.Add(c.LDSWrites)
	m.deviceLDSConflicts.Add(c.LDSBankConflicts)
	m.deviceBarrierWaits.Add(c.BarrierWaits)
	m.deviceWorkGroups.Add(c.WGCount)
}

// writeTo renders the text exposition: one "name value" line per counter,
// with the per-endpoint families labeled Prometheus-style. The format is
// stable — tests and scrapers key on the names; existing keys never change
// meaning, new families only append.
func (m *metrics) writeTo(w io.Writer) {
	for ep := 0; ep < nEndpoints; ep++ {
		fmt.Fprintf(w, "spmvd_requests_total{endpoint=%q} %d\n", endpointNames[ep], m.requests[ep].Load())
	}
	for ep := 0; ep < nEndpoints; ep++ {
		fmt.Fprintf(w, "spmvd_request_errors_total{endpoint=%q} %d\n", endpointNames[ep], m.errors[ep].Load())
	}
	// The seconds sum/count pair lets scrapers form an average latency;
	// every request contributes exactly one latency observation, so the
	// count equals the request total by construction.
	for ep := 0; ep < nEndpoints; ep++ {
		fmt.Fprintf(w, "spmvd_request_seconds_sum{endpoint=%q} %.6f\n", endpointNames[ep], float64(m.latencyNs[ep].Load())/1e9)
	}
	for ep := 0; ep < nEndpoints; ep++ {
		fmt.Fprintf(w, "spmvd_request_seconds_count{endpoint=%q} %d\n", endpointNames[ep], m.requests[ep].Load())
	}
	fmt.Fprintf(w, "spmvd_rejected_total %d\n", m.rejected.Load())
	fmt.Fprintf(w, "spmvd_canceled_total %d\n", m.canceled.Load())
	fmt.Fprintf(w, "spmvd_inflight %d\n", m.inflight.Load())
	fmt.Fprintf(w, "spmvd_spmv_vectors_total %d\n", m.vectors.Load())
	fmt.Fprintf(w, "spmvd_degraded_runs_total %d\n", m.degraded.Load())
	fmt.Fprintf(w, "spmvd_degraded_total %d\n", m.degradedServed.Load())
	fmt.Fprintf(w, "spmvd_breaker_trips_total %d\n", m.breakerTrips.Load())
	fmt.Fprintf(w, "spmvd_breaker_half_open_probes_total %d\n", m.breakerProbes.Load())
	fmt.Fprintf(w, "spmvd_panics_recovered_total %d\n", m.panics.Load())
	fmt.Fprintf(w, "spmvd_batched_requests_total %d\n", m.batchedRequests.Load())
	fmt.Fprintf(w, "spmvd_batch_size_sum %d\n", m.batchSizeSum.Load())
	fmt.Fprintf(w, "spmvd_batch_size_count %d\n", m.batchSizeCount.Load())
	fmt.Fprintf(w, "spmvd_batch_flushes_total{trigger=\"window\"} %d\n", m.batchFlushWindow.Load())
	fmt.Fprintf(w, "spmvd_batch_flushes_total{trigger=\"size\"} %d\n", m.batchFlushSize.Load())
	fmt.Fprintf(w, "spmvd_session_iterations_total %d\n", m.sessionIterations.Load())
	fmt.Fprintf(w, "spmvd_session_evictions_total %d\n", m.sessionEvictions.Load())
	fmt.Fprintf(w, "spmvd_session_retunes_total %d\n", m.sessionRetunes.Load())

	fmt.Fprintf(w, "spmvd_device_cycles_total %d\n", m.deviceCycles.Load())
	fmt.Fprintf(w, "spmvd_device_mem_instrs_total %d\n", m.deviceMemInstrs.Load())
	fmt.Fprintf(w, "spmvd_device_lane_slots_total %d\n", m.deviceLaneSlots.Load())
	fmt.Fprintf(w, "spmvd_device_active_lanes_total %d\n", m.deviceActiveLanes.Load())
	slots, active := m.deviceLaneSlots.Load(), m.deviceActiveLanes.Load()
	ratio := 0.0
	if slots > 0 {
		ratio = float64(active) / float64(slots)
	}
	fmt.Fprintf(w, "spmvd_device_active_lane_ratio %.6f\n", ratio)
	fmt.Fprintf(w, "spmvd_device_lds_reads_total %d\n", m.deviceLDSReads.Load())
	fmt.Fprintf(w, "spmvd_device_lds_writes_total %d\n", m.deviceLDSWrites.Load())
	fmt.Fprintf(w, "spmvd_device_lds_bank_conflicts_total %d\n", m.deviceLDSConflicts.Load())
	fmt.Fprintf(w, "spmvd_device_barrier_waits_total %d\n", m.deviceBarrierWaits.Load())
	fmt.Fprintf(w, "spmvd_device_workgroups_total %d\n", m.deviceWorkGroups.Load())

	jsonEndpoints := [...]int{epSpMV, epSolve, epIterate} // the ones readRequest serves
	for _, ep := range jsonEndpoints {
		fmt.Fprintf(w, "spmvd_decode_seconds_sum{endpoint=%q} %.6f\n", endpointNames[ep], float64(m.decodeNs[ep].Load())/1e9)
	}
	for _, ep := range jsonEndpoints {
		fmt.Fprintf(w, "spmvd_decode_seconds_count{endpoint=%q} %d\n", endpointNames[ep], m.decodes[ep].Load())
	}
	fmt.Fprintf(w, "spmvd_decode_fallback_total %d\n", m.decodeFallbacks.Load())
	fmt.Fprintf(w, "spmvd_decode_seconds_sum{endpoint=\"upload\"} %.6f\n", float64(m.decodeNs[epMatrices].Load())/1e9)
	fmt.Fprintf(w, "spmvd_decode_seconds_count{endpoint=\"upload\"} %d\n", m.decodes[epMatrices].Load())
}
