package main

// metricDef names one number the tool prints. BENCHMARK.json lists the same
// names, units and directions; names_test.go holds the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a client or an operator of spmvd sees. The same names on
// every workload; an op is the workload's unit of client work.
//
// The timed ones are restated at nominal host speed (host.go), hence _norm
// and setup_s's comment: between two runs of one commit the sandbox's own
// speed moves by more than any bound allowed here, and the reference kernel
// that measures it is timed only while the daemon is idle, so nothing the
// daemon does can move it. result.Raw and host.ref_ms carry the numbers as
// the clocks read them.
//
// Failures are not in this list because a metric must never read 0: they
// are the result line's attempted and failed counts, and any failed op
// makes the run incorrect.
var endToEnd = []metricDef{
	// Daemon spawn → /readyz → inputs uploaded → first verified response,
	// restated; median of the run's set-ups. Includes bootstrap training:
	// the paper's offline search + C5.0 fit. (The contract fixes the name.)
	{"setup_s", "s", "lower", 0.25},
	// Verified ops completed per second; median of the window's slices.
	{"ops_per_s_norm", "1/s", "higher", 0.20},
	// Op latency from the instant the op was due: the median over the
	// slices of each slice's median, and the 95th percentile of the whole
	// window.
	{"p50_ms_norm", "ms", "lower", 0.20},
	{"p95_ms_norm", "ms", "lower", 0.25},
	// Δ(utime+stime) of the daemon ÷ ops; median of the slices. What an
	// operator pays per op.
	{"daemon_cpu_ms_per_op_norm", "ms", "lower", 0.20},
	// The daemon's VmHWM when the window closes.
	{"daemon_rss_mb", "MB", "lower", 0.25},
}

// exactCounts repeat bit-for-bit between runs of the same code and seed;
// -selfcheck fails on any difference.
var exactCounts = []string{"hsa.sim_cycles_per_op", "solvers.iterations_to_tol", "plan.bins"}

// perLayer is one row per number of a single layer, measured from outside
// the daemon: deltas of its public /metrics over the window, and timed
// calls into each module's exported functions in this process. They carry
// no bound. bench/README.md says which end-to-end metric each should move.
var perLayer = []metricDef{
	// server
	{"server.handler_ms", "ms", "lower", 0},           // Δspmvd_request_seconds sum ÷ count over the replay, one op at a time
	{"server.handler_loaded_ms", "ms", "lower", 0},    // the same over the measured window: handler time under contention
	{"server.transport_ms", "ms", "lower", 0},         // mean client latency − loaded handler: socket, HTTP framing, client decode + verify
	{"server.codec_ms", "ms", "lower", 0},             // json.Unmarshal of the request + json.Marshal of the results
	{"server.self_ms", "ms", "lower", 0},              // handler − (codec + plan lookup + execution [+ cold path])
	{"server.req_bytes", "bytes", "lower", 0},         // request bytes per op
	{"server.resp_bytes", "bytes", "lower", 0},        // response bytes per op
	{"server.rejected", "count", "lower", 0},          // Δspmvd_rejected_total (429s)
	{"server.degraded_share", "share", "lower", 0},    // degraded runs ÷ vectors served
	{"server.fallbacks", "count", "lower", 0},         // fallbacks the responses reported
	{"server.batch_width_mean", "count", "higher", 0}, // Δbatch_size_sum ÷ Δbatch_size_count
	{"server.flush_size_share", "share", "higher", 0}, // size-triggered flushes ÷ all flushes
	// core
	{"core.execute_ms", "ms", "lower", 0},               // ExecutePlanOpts, one vector, counters on
	{"core.execute_batch_ms_per_vec", "ms", "lower", 0}, // ExecutePlanBatchOpts at B=8, ÷8
	{"core.plan_ms", "ms", "lower", 0},                  // Framework.Plan
	{"core.search_s", "s", "lower", 0},                  // Σ TrainingData.AddMatrix over the bootstrap corpus
	// kernels + hsa
	{"kernels.launch_ms", "ms", "lower", 0},         // core.SimulateKernel over the plan's bins
	{"hsa.sim_cycles_per_op", "cycles", "lower", 0}, // Δspmvd_device_cycles_total ÷ Δvectors × products per op; exact
	{"hsa.active_lane_ratio", "ratio", "higher", 0}, // Δactive lanes ÷ Δlane slots
	// sparse
	{"sparse.mulvec_ms", "ms", "lower", 0},   // the per-request reference product
	{"sparse.validate_ms", "ms", "lower", 0}, // the per-request CSR.Validate
	// cpu
	{"cpu.mulvecnnz_ms", "ms", "lower", 0},     // the native floor, one worker
	{"cpu.spmm8_ms_per_vec", "ms", "lower", 0}, // native SpMM at B=8, ÷8
	{"cpu.native_ratio", "ratio", "lower", 0},  // p50_ms ÷ (cpu.mulvecnnz_ms × products per op)
	// plan + plancache
	{"plan.fingerprint_ms", "ms", "lower", 0},
	{"plan.rebin_ms", "ms", "lower", 0},
	{"plan.bins", "count", "lower", 0},
	{"plan.u", "count", "lower", 0},
	{"plancache.hit_us", "us", "lower", 0}, // GetOrCompute, warm
	{"plancache.hits", "count", "higher", 0},
	{"plancache.misses", "count", "lower", 0},
	// mmio, features, binning
	{"mmio.read_ms", "ms", "lower", 0}, // ReadWithLimits on the upload body
	{"mmio.read_mb_per_s", "MB/s", "higher", 0},
	{"features.extract_ms", "ms", "lower", 0},
	{"binning.coarse_ms", "ms", "lower", 0}, // at the plan's U
	// solvers
	{"solvers.step_ms", "ms", "lower", 0}, // CGStepper.Step over Lift(a.MulVec)
	{"solvers.iterations_to_tol", "count", "lower", 0},
	{"solvers.time_to_tol_ms", "ms", "lower", 0},
	{"solvers.final_rel_residual", "ratio", "lower", 0},
	// c50, matgen
	{"c50.train_s", "s", "lower", 0},
	{"matgen.generate_s", "s", "lower", 0},
	// the generator itself and its host: sanity of the numbers above
	{"client.samples", "count", "higher", 0},
	{"client.p99_ms", "ms", "lower", 0},
	{"client.late_ms_p95", "ms", "lower", 0},    // how late the generator sent, p95
	{"client.backlog_end", "count", "lower", 0}, // open loop: due but unsent at window close
	{"client.sent", "count", "higher", 0},
	{"client.ok", "count", "higher", 0},
	{"client.failed", "count", "lower", 0},
	{"daemon.ready_s", "s", "lower", 0},
	{"host.ref_ms", "ms", "lower", 0},             // the benchmark's reference kernel, daemon idle: mean of the window's readings
	{"host.steal_share", "share", "lower", 0},     // CPU time the hypervisor withheld ÷ all CPU time, over the window
	{"trace.overhead_share", "share", "lower", 0}, // traced slice p50 ÷ untraced p50 − 1
}

// layerSpans maps a per-layer timing to the span it is the minimum of.
var layerSpans = map[string]string{
	"core.execute_ms":     "core.ExecutePlanOpts",
	"core.plan_ms":        "core.Framework.Plan",
	"kernels.launch_ms":   "kernels.launch",
	"sparse.mulvec_ms":    "sparse.MulVec",
	"sparse.validate_ms":  "sparse.Validate",
	"cpu.mulvecnnz_ms":    "cpu.MulVecNNZ",
	"plan.fingerprint_ms": "plan.Fingerprint",
	"plan.rebin_ms":       "plan.Rebin",
	"mmio.read_ms":        "mmio.ReadWithLimits",
	"features.extract_ms": "features.Extract",
	"binning.coarse_ms":   "binning.Coarse",
}
