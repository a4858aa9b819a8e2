package main

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"sync/atomic"
	"time"

	"spmvtune/internal/plan"
)

// runOpts is how one workload is run.
type runOpts struct {
	seconds   float64       // length of the measured window
	warmup    time.Duration // load before it, discarded: caches filled, plan tuned
	smoke     bool          // a quick look: one set-up
	traced    bool          // follow the window with the traced pass
	daemonBin string
	outDir    string
}

// result is one workload's numbers from one run.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Correct   bool               `json:"correct"`
	Problems  []string           `json:"problems,omitempty"` // failed ops and broken invariants
	Notes     []string           `json:"notes,omitempty"`    // what a reader should know that does not make the run wrong
	EndToEnd  map[string]float64 `json:"endToEnd"`
	Raw       map[string]float64 `json:"raw"`                // the restated end-to-end numbers as the clocks read them
	PerLayer  map[string]float64 `json:"perLayer,omitempty"` // traced runs only
}

// session is the generator's state against one daemon.
type session struct {
	in     *inputs
	c      *client
	matrix string // id of the resident matrix
	seq    atomic.Int64

	// kindSolve: each client's live session, and whether it must be
	// replaced before the client's next op.
	solveID  []string
	recreate []bool
	// fallbacks the responses reported since the session began.
	fallbacks atomic.Int64
}

// setup uploads the inputs and takes the workload's first verified
// response; it is the tail of setup_s.
func (s *session) setup(ctx context.Context) error {
	in := s.in
	if in.w.kind == kindCold {
		_, err := s.op(ctx, 0, int(s.seq.Add(1)-1))
		s.c.record(err)
		return err
	}
	id, err := s.c.upload(ctx, in.mtx)
	if err != nil {
		return err
	}
	s.matrix = id
	for i := range in.pool {
		in.pool[i].bindMatrix(id)
	}
	if in.w.kind == kindSolve {
		s.solveID = make([]string, in.w.clients)
		s.recreate = make([]bool, in.w.clients)
		for c := range s.solveID {
			if s.solveID[c], err = s.c.createSession(ctx, id, &in.solves[c]); err != nil {
				return err
			}
		}
	}
	_, err = s.op(ctx, 0, int(s.seq.Add(1)-1))
	s.c.record(err)
	return err
}

// op performs op number seq for client c. prep is time spent, before the op
// proper, replacing a finished solver session: inside the window but not
// part of any op.
func (s *session) op(ctx context.Context, c, seq int) (prep time.Duration, err error) {
	in := s.in
	switch in.w.kind {
	case kindSpMV:
		rep, err := s.c.spmv(ctx, &in.pool[seq%len(in.pool)])
		if err == nil {
			s.fallbacks.Add(int64(rep.Fallbacks))
		}
		return 0, err

	case kindCold:
		op := &in.pool[seq%len(in.pool)]
		id, err := s.c.upload(ctx, op.mtx)
		if err != nil {
			return 0, err
		}
		if s.matrix == "" {
			s.matrix = id
		}
		op.bindMatrix(id)
		rep, err := s.c.spmv(ctx, op)
		if err != nil {
			return 0, err
		}
		if rep.CacheHit {
			return 0, fmt.Errorf("cold_upload: op %d was served from the plan cache", seq)
		}
		s.fallbacks.Add(int64(rep.Fallbacks))
		return 0, nil

	default: // kindSolve
		sv := &in.solves[c]
		if s.recreate[c] {
			t0 := time.Now()
			if _, err := s.c.do(ctx, "DELETE", "/v1/solve/"+s.solveID[c], "", nil); err != nil {
				return 0, err
			}
			if s.solveID[c], err = s.c.createSession(ctx, s.matrix, sv); err != nil {
				return 0, err
			}
			s.recreate[c] = false
			prep = time.Since(t0)
		}
		rep, err := s.c.iterate(ctx, s.solveID[c])
		if err != nil {
			return prep, err
		}
		if rep.Done {
			s.recreate[c] = true
			return prep, checkSolved(in.a, sv, rep)
		}
		return prep, nil
	}
}

// load runs one pass of the workload's traffic for the given length: the
// warm-up, the measured window and the traced slice are the same load.
func (s *session) load(ctx context.Context, length time.Duration, scheduleSeed int64, tr *tracer) (pass, error) {
	w := s.in.w
	if w.rate > 0 {
		op := func(ctx context.Context, c, seq int) error {
			id := tr.start(fmt.Sprintf("%s-%d", w.name, seq), "client.request", 0, false)
			_, err := s.op(ctx, c, seq)
			tr.end(id)
			s.c.record(err)
			return err
		}
		return runOpen(ctx, w.clients, length, schedule(scheduleSeed, w.rate, length), &s.seq, op)
	}
	op := func(ctx context.Context, c, seq int) (time.Duration, error) {
		id := tr.start(fmt.Sprintf("%s-%d", w.name, seq), "client.request", 0, false)
		prep, err := s.op(ctx, c, seq)
		tr.end(id)
		s.c.record(err)
		return prep, err
	}
	return runClosed(ctx, w.clients, length, &s.seq, op)
}

// setups is how many times an untraced run sets the daemon up; setup_s is
// their median. A traced run does not report set-up time and a smoke run is
// a quick look: both set up once.
const setups = 3

// nSlices is how many slices the measured window is cut into.
const nSlices = 5

// setUp is one set-up: spawn the daemon, wait for /readyz, upload the
// inputs and take the first verified response. It returns how long that
// took, and the host's speed while it did. On an error no daemon is left.
func setUp(ctx context.Context, in *inputs, hc *http.Client, ref *hostRef, bin, logPath string) (d *daemon, s *session, seconds, speed float64, err error) {
	refMs := ref.beside(func() {
		start := time.Now()
		if d, err = startDaemon(ctx, bin, logPath, hc, in.w.daemonArgs); err != nil {
			return
		}
		s = &session{in: in, c: &client{hc: hc, base: d.base}}
		if err = s.setup(ctx); err != nil {
			d.stop()
			return
		}
		seconds = time.Since(start).Seconds()
	})
	if err != nil {
		return nil, nil, 0, 0, err
	}
	return d, s, seconds, speedOf(refMs), nil
}

// runWorkload measures one workload: generate inputs, set the daemon up
// (setups times; the last one is kept), warm up, measure the window with
// tracing off, and — when asked — run the traced pass on the same daemon.
// Every process it starts has exited when it returns.
func runWorkload(ctx context.Context, w workload, seed int64, opts runOpts) (*result, error) {
	in, err := generate(w, seed)
	if err != nil {
		return nil, fmt.Errorf("%s: generate inputs: %w", w.name, err)
	}
	hc := newHTTPClient(w.clients)
	defer hc.CloseIdleConnections()

	n := setups
	if opts.traced || opts.smoke {
		n = 1
	}
	ref := newHostRef()
	var d *daemon
	var s *session
	var setupS, setupRawS []float64
	for i := 0; i < n; i++ {
		if d != nil {
			d.stop()
		}
		logPath := filepath.Join(opts.outDir, fmt.Sprintf("spmvd-%s-%d.log", w.name, i))
		var seconds, speed float64
		if d, s, seconds, speed, err = setUp(ctx, in, hc, ref, opts.daemonBin, logPath); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w (daemon log: %s)", w.name, err, logPath)
		}
		setupS, setupRawS = append(setupS, seconds*speed), append(setupRawS, seconds)
	}
	defer d.stop()

	res := &result{Workload: w.name, Seed: seed,
		EndToEnd: map[string]float64{"setup_s": median(setupS)},
		Raw:      map[string]float64{"setup_s": median(setupRawS)}}
	problem := func(format string, args ...any) {
		res.Problems = append(res.Problems, fmt.Sprintf(format, args...))
	}

	var host hostState
	if w.rate > 0 && isGuest() {
		// An open loop leaves the CPUs idle most of the time, and a guest's
		// idle vCPU is slow to come back (host.go).
		sp, err := startSpinners()
		if err != nil {
			return nil, err
		}
		defer sp.stop()
		host.spinners = true
	}
	if _, err := s.load(ctx, opts.warmup, subSeed(seed, streamSchedule), nil); err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
	}

	// The measured window, tracing off, in nSlices slices, each with the
	// reference kernel ticking beside it. Between two slices no op is in
	// flight: that is where the daemon's CPU clock is read.
	before, err := s.c.scrape(ctx)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	io0 := [2]int64{s.c.reqBytes.Load(), s.c.respBytes.Load()}
	fb0 := s.fallbacks.Load()
	clock0, err := readHostClock()
	if err != nil {
		return nil, err
	}
	slice := time.Duration(opts.seconds * float64(time.Second) / nSlices)
	var win pass
	var raw, restated []sliceStats
	var refMs []float64
	for i := 0; i < nSlices; i++ {
		cpu0, err := d.cpuMs()
		if err != nil {
			return nil, err
		}
		var p pass
		ms := ref.beside(func() { p, err = s.load(ctx, slice, subSeed(seed, streamSchedule+1+i), nil) })
		if err != nil {
			return nil, fmt.Errorf("%s: measured window: %w", w.name, err)
		}
		cpu1, err := d.cpuMs()
		if err != nil {
			return nil, err
		}
		refMs = append(refMs, ms)
		win.samples = append(win.samples, p.samples...)
		win.backlogEnd += p.backlogEnd
		if st, ok := sliceOf(p, cpu1-cpu0, w.rate > 0); ok {
			raw = append(raw, st)
			restated = append(restated, st.atSpeed(speedOf(ms), w.rate > 0))
		}
	}
	clock1, err := readHostClock()
	if err != nil {
		return nil, err
	}
	host.refMs, host.stealShare = mean(refMs), clock1.stealSince(clock0)
	res.Raw["host.ref_ms"] = host.refMs
	res.Notes = host.notes()
	io1 := [2]int64{s.c.reqBytes.Load(), s.c.respBytes.Load()}
	after, err := s.c.scrape(ctx)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	rss, err := d.rssHWMMb()
	if err != nil {
		return nil, err
	}
	if len(raw) == 0 {
		return nil, fmt.Errorf("%s: no op succeeded in the window: %v", w.name, s.c.firstErr)
	}

	var lat, latRestated []float64
	res.Raw["ops_per_s"], res.Raw["p50_ms"], res.Raw["daemon_cpu_ms_per_op"], lat = windowOf(raw)
	res.Raw["p95_ms"] = percentile(lat, 0.95)
	res.EndToEnd["ops_per_s_norm"], res.EndToEnd["p50_ms_norm"], res.EndToEnd["daemon_cpu_ms_per_op_norm"], latRestated = windowOf(restated)
	res.EndToEnd["p95_ms_norm"] = percentile(latRestated, 0.95)
	res.EndToEnd["daemon_rss_mb"] = rss
	if n := beyond(len(lat), 0.95); n < 10 {
		res.Notes = append(res.Notes, fmt.Sprintf("p95 has only %d samples beyond it (%d in the window): the host is too slow for this window", n, len(lat)))
	}
	var late []float64
	for _, sm := range win.samples {
		late = append(late, sm.lateMs())
	}

	delta := after.delta(before)
	if err := checkInvariants(w, after, delta, len(win.samples)); err != nil {
		problem("%v", err)
	}
	if w.vectors == batchB {
		// The fused executor only differs from eight single launches when
		// the plan has bins to fuse across.
		out, err := s.c.do(ctx, "GET", "/v1/plans/"+s.matrix, "", nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		served, err := plan.Decode(out)
		if err != nil {
			return nil, fmt.Errorf("%s: decode daemon plan: %w", w.name, err)
		}
		if len(served.Bins) < 2 {
			problem("plan has %d bin(s): the workload needs a matrix in at least 2", len(served.Bins))
		}
	}

	if opts.traced {
		winStats := windowStats{
			p50Ms: res.Raw["p50_ms"], host: host, lat: lat, late: late, pass: win, delta: delta,
			reqBytes: io1[0] - io0[0], respBytes: io1[1] - io0[1],
			fallbacks: s.fallbacks.Load() - fb0,
		}
		res.PerLayer, err = tracedPass(ctx, s, d, seed, opts, winStats)
		if err != nil {
			return nil, fmt.Errorf("%s: traced pass: %w", w.name, err)
		}
	}

	res.Attempted, res.Failed = s.c.attempted.Load(), s.c.failed.Load()
	if res.Failed > 0 {
		problem("%d of %d ops failed; first: %v", res.Failed, res.Attempted, s.c.firstErr)
	}
	res.Correct = len(res.Problems) == 0
	return res, nil
}

// checkInvariants asserts what each workload was built to guarantee, from
// the daemon's own counters. total is the scrape after the window, delta
// its difference from the scrape before; ops is the window's op count.
func checkInvariants(w workload, total, delta metricsText, ops int) error {
	misses, err := total.get("spmvd_plan_cache_misses")
	if err != nil {
		return err
	}
	switch w.kind {
	case kindCold:
		// Every op uploads a structure the cache does not hold.
		if got := delta["spmvd_plan_cache_misses"]; int(got) != ops {
			return fmt.Errorf("%s: %d plan-cache misses in the window for %d ops", w.name, int(got), ops)
		}
	default:
		// One matrix uploaded, tuned exactly once, hit ever after.
		if misses != 1 {
			return fmt.Errorf("%s: %d plan-cache misses since start, want 1 (one matrix uploaded)", w.name, int(misses))
		}
	}
	if w.vectors == batchB {
		// A request of eight vectors against -max-batch 8 fills a launch by
		// itself, so launches are size-triggered at B = 8. The one exception
		// is two requests enqueueing in the same ~100 µs: their sixteen
		// vectors then split 8 + k + (8−k), the tail flushed by the window.
		// That is the coalescer working as designed, so the check leaves
		// room for it — but a workload that stops fusing must fail.
		launches, width := delta["spmvd_batch_size_count"], delta["spmvd_batch_size_sum"]
		if launches == 0 || width/launches < batchB-0.5 {
			return fmt.Errorf("%s: %g vectors in %g launches: want launches size-triggered at B=%d", w.name, width, launches, batchB)
		}
	}
	return nil
}

// opEndpoints names the daemon endpoints one op of each kind calls, as
// /metrics labels them.
var opEndpoints = map[kind][]string{
	kindSpMV:  {"spmv"},
	kindSolve: {"iterate"},
	kindCold:  {"matrices", "spmv"},
}

// handlerMs is the mean time the daemon's handlers spent on one op between
// two scrapes: Δspmvd_request_seconds sum ÷ count, summed over the op's
// endpoints.
func handlerMs(w workload, delta metricsText) float64 {
	var ms float64
	for _, ep := range opEndpoints[w.kind] {
		if n := delta[endpoint("spmvd_request_seconds_count", ep)]; n > 0 {
			ms += 1e3 * delta[endpoint("spmvd_request_seconds_sum", ep)] / n
		}
	}
	return ms
}

// windowStats carries what the measured window hands to the traced pass.
type windowStats struct {
	p50Ms     float64 // the window's p50 as the clock read it
	host      hostState
	lat, late []float64 // verified ops inside the window; every op sent
	pass      pass
	delta     metricsText
	reqBytes  int64
	respBytes int64
	fallbacks int64
}

// tracedPass produces the per-layer numbers: one more slice of the same
// load with span recording on (its p50 against the untraced window's is the
// tracing overhead), then replayOps ops replayed one at a time, each first
// over the socket and then — same input — as calls into every layer in this
// process, with a span around each. Spans go to trace-<workload>.jsonl.
func tracedPass(ctx context.Context, s *session, d *daemon, seed int64, opts runOpts, ws windowStats) (map[string]float64, error) {
	in, w := s.in, s.in.w
	tr := newTracer()

	slice := time.Duration(opts.seconds * float64(time.Second) * 2 / nSlices)
	traced, err := s.load(ctx, slice, subSeed(seed, streamSchedule+1+nSlices), tr)
	if err != nil {
		return nil, err
	}
	var tracedLat []float64
	for _, sm := range traced.samples {
		if sm.ok {
			tracedLat = append(tracedLat, sm.latencyMs())
		}
	}

	fw, searchS, trainS := localModel(tr)
	if w.kind == kindCold {
		// Finish the current cycle, so the replay always multiplies the
		// same structures and its counts repeat exactly.
		for int(s.seq.Load())%len(in.pool) != 0 {
			_, err := s.op(ctx, 0, int(s.seq.Add(1)-1))
			s.c.record(err)
			if err != nil {
				return nil, err
			}
		}
	}
	p, err := fw.Plan(ctx, in.a)
	if err != nil {
		return nil, fmt.Errorf("in-process plan: %w", err)
	}
	if w.kind == kindSolve {
		s.recreate[0] = true // the replay starts a session of its own
	}

	env := newLayerEnv(tr, fw)
	before, err := s.c.scrape(ctx)
	if err != nil {
		return nil, err
	}
	for i := 0; i < replayOps; i++ {
		seq := int(s.seq.Add(1) - 1)
		trace := fmt.Sprintf("%s-replay-%d", w.name, i)
		root := tr.start(trace, "op", 0, false)
		req := tr.start(trace, "client.request", root, false)
		_, err := s.op(ctx, 0, seq)
		tr.end(req)
		s.c.record(err)
		if err != nil {
			return nil, fmt.Errorf("replay op %d: %w", i, err)
		}
		inproc := tr.start(trace, "inprocess", root, false)
		op := &in.pool[seq%len(in.pool)]
		a, pl := in.a, p
		if w.kind == kindCold {
			if a, pl, err = env.coldPath(ctx, trace, inproc, op.mtx); err != nil {
				return nil, err
			}
		}
		if err := env.hotPath(ctx, trace, inproc, w, a, pl, op); err != nil {
			return nil, err
		}
		tr.end(inproc)
		tr.end(root)
	}
	after, err := s.c.scrape(ctx)
	if err != nil {
		return nil, err
	}
	replay := after.delta(before)
	// After the replay, because asking the daemon for a plan tunes it: on
	// cold_upload that would put a replayed structure into the cache.
	if err := checkParity(ctx, s.c, s.matrix, p); err != nil {
		return nil, err
	}
	if w.kind == kindCold && int(replay["spmvd_plan_cache_misses"]) != replayOps {
		return nil, fmt.Errorf("replay: %d plan-cache misses for %d ops", int(replay["spmvd_plan_cache_misses"]), replayOps)
	}

	cg, err := env.offPath(ctx, in, p, seed)
	if err != nil {
		return nil, err
	}
	if err := tr.writeJSONL(filepath.Join(opts.outDir, "trace-"+w.name+".jsonl")); err != nil {
		return nil, err
	}
	return layerMetrics(w, in, d, p, tr, ws, replay, tracedLat, cg, searchS, trainS), nil
}

// layerMetrics assembles the per-layer table from the window's counters,
// the spans and the in-process solve.
func layerMetrics(w workload, in *inputs, d *daemon, p *plan.TuningPlan, tr *tracer, ws windowStats,
	replay metricsText, tracedLat []float64, cg cgRun, searchS, trainS float64) map[string]float64 {

	m := map[string]float64{}
	ms := minMsByName(tr.spans)
	for metric, spanName := range layerSpans {
		m[metric] = ms[spanName]
	}
	ops := float64(len(ws.pass.samples))

	// Handler time twice: under the window's load, where two handlers and
	// the generator share two cores, and over the replay, one op at a time —
	// the conditions the in-process calls below were timed under, so the
	// one they may be subtracted from.
	m["server.handler_loaded_ms"] = handlerMs(w, ws.delta)
	m["server.handler_ms"] = handlerMs(w, replay)
	m["server.transport_ms"] = mean(ws.lat) - m["server.handler_loaded_ms"]
	m["server.codec_ms"] = ms["server.codec.decode"] + ms["server.codec.encode"]
	m["core.execute_batch_ms_per_vec"] = ms["core.ExecutePlanBatchOpts"] / batchB
	m["cpu.spmm8_ms_per_vec"] = ms["cpu.SpMM"] / batchB
	perProduct := m["core.execute_ms"]
	if w.vectors > 1 {
		perProduct = m["core.execute_batch_ms_per_vec"]
	}
	children := m["server.codec_ms"] + ms["plancache.GetOrCompute"] + float64(w.products)*perProduct
	if w.kind == kindCold {
		children += m["mmio.read_ms"] + m["plan.fingerprint_ms"] + m["core.plan_ms"]
	}
	m["server.self_ms"] = m["server.handler_ms"] - children
	m["server.req_bytes"] = float64(ws.reqBytes) / ops
	m["server.resp_bytes"] = float64(ws.respBytes) / ops
	m["server.rejected"] = ws.delta["spmvd_rejected_total"]
	vectors := ws.delta["spmvd_spmv_vectors_total"]
	if vectors > 0 {
		m["server.degraded_share"] = ws.delta["spmvd_degraded_runs_total"] / vectors
	}
	m["server.fallbacks"] = float64(ws.fallbacks)
	if n := ws.delta["spmvd_batch_size_count"]; n > 0 {
		m["server.batch_width_mean"] = ws.delta["spmvd_batch_size_sum"] / n
		bySize := ws.delta[`spmvd_batch_flushes_total{trigger="size"}`]
		m["server.flush_size_share"] = bySize / (bySize + ws.delta[`spmvd_batch_flushes_total{trigger="window"}`])
	}

	m["core.search_s"] = searchS
	m["c50.train_s"] = trainS
	m["matgen.generate_s"] = in.generateS

	// Modeled cycles depend on the structure and the plan, not on the
	// vector or the clock, so cycles per product over the fixed replay is a
	// count that repeats exactly.
	if n := replay["spmvd_spmv_vectors_total"]; n > 0 {
		m["hsa.sim_cycles_per_op"] = replay["spmvd_device_cycles_total"] / n * float64(w.products)
	}
	if slots := ws.delta["spmvd_device_lane_slots_total"]; slots > 0 {
		m["hsa.active_lane_ratio"] = ws.delta["spmvd_device_active_lanes_total"] / slots
	}

	m["cpu.native_ratio"] = ws.p50Ms / (m["cpu.mulvecnnz_ms"] * float64(w.products))
	m["plan.bins"] = float64(len(p.Bins))
	m["plan.u"] = float64(p.U)
	m["plancache.hit_us"] = ms["plancache.GetOrCompute"] * 1e3
	m["plancache.hits"] = ws.delta["spmvd_plan_cache_hits"]
	m["plancache.misses"] = ws.delta["spmvd_plan_cache_misses"]
	m["mmio.read_mb_per_s"] = float64(len(in.mtx)) / 1e6 / (m["mmio.read_ms"] / 1e3)

	m["solvers.step_ms"] = cg.minStepMs
	m["solvers.iterations_to_tol"] = float64(cg.iterations)
	m["solvers.time_to_tol_ms"] = cg.totalMs
	m["solvers.final_rel_residual"] = cg.relResidual

	m["client.samples"] = float64(len(ws.lat))
	m["client.p99_ms"] = percentile(ws.lat, 0.99)
	m["client.late_ms_p95"] = percentile(ws.late, 0.95)
	m["client.backlog_end"] = float64(ws.pass.backlogEnd)
	m["client.sent"] = ops
	var ok float64
	for _, sm := range ws.pass.samples {
		if sm.ok {
			ok++
		}
	}
	m["client.ok"] = ok
	m["client.failed"] = ops - ok
	m["daemon.ready_s"] = d.readyS
	m["host.ref_ms"] = ws.host.refMs
	m["host.steal_share"] = ws.host.stealShare
	m["trace.overhead_share"] = median(tracedLat)/median(ws.lat) - 1
	return m
}
