// Package server is the HTTP serving layer of the auto-tuning framework:
// a concurrent SpMV daemon in front of a shared tuning-plan cache.
//
// The paper's tuning pipeline (feature extraction → stage-1 U → binning →
// stage-2 kernels) is paid once per matrix structure and amortized over
// every subsequent multiplication. The server makes that split explicit:
//
//	POST /v1/matrices   upload a Matrix Market body → matrix ID
//	POST /v1/spmv       one vector or a batch against an uploaded matrix
//	GET  /v1/plans/{id} the cached/computed TuningPlan for a matrix
//	GET  /healthz       liveness
//	GET  /metrics       text exposition of cache and request counters
//
// Concurrent requests for the same matrix tune once (the plan cache's
// singleflight), execution happens through the guarded fallback chain so a
// kernel fault degrades instead of failing the request, a bounded worker
// pool applies queue backpressure (429 on overflow), and every request
// carries a deadline.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"spmvtune/internal/core"
	"spmvtune/internal/errdefs"
	"spmvtune/internal/hsa"
	"spmvtune/internal/mmio"
	"spmvtune/internal/plan"
	"spmvtune/internal/plancache"
	"spmvtune/internal/retrain"
	"spmvtune/internal/solvers"
	"spmvtune/internal/sparse"
	"spmvtune/internal/trace"
)

// matrixIDLen is the fingerprint prefix used as the public matrix ID:
// 64 bits of the structural hash, short enough for URLs, long enough that
// a collision in one server's working set is vanishingly unlikely.
const matrixIDLen = 16

// Config configures a Server. The zero values of every field except
// Framework select production defaults.
type Config struct {
	// Framework executes the tuned SpMV; required.
	Framework *core.Framework
	// Guard tunes the guarded executor (retries, backoff, tolerance).
	Guard core.GuardOptions
	// Limits bounds uploaded Matrix Market headers (see mmio.Limits);
	// the zero value selects mmio.DefaultLimits.
	Limits mmio.Limits
	// MaxBodyBytes bounds any request body; <= 0 selects 64 MiB.
	MaxBodyBytes int64
	// Workers bounds concurrently executing SpMV requests; <= 0 selects
	// GOMAXPROCS.
	Workers int
	// QueueDepth is how many SpMV requests may wait for a worker beyond
	// the executing ones; the next request is rejected with 429.
	// <= 0 selects 64.
	QueueDepth int
	// ExecWorkers bounds the per-request bin pool: each guarded execution
	// may serve up to this many independent bins concurrently
	// (core.GuardOptions.Workers). <= 0 selects 1 — sequential bins, all
	// parallelism spent across requests. Values > 1 are clamped so the
	// request pool times the bin pool never exceeds GOMAXPROCS; the
	// request pool owns the host budget.
	ExecWorkers int
	// DefaultTimeout is the per-request execution deadline when the
	// request does not carry its own; <= 0 selects 30s. It is clamped to
	// MaxTimeout.
	DefaultTimeout time.Duration
	// MaxTimeout clamps request-supplied deadlines; <= 0 selects 5m.
	MaxTimeout time.Duration
	// MaxBatch bounds the vectors of one SpMV request, and — when the
	// coalescer is on — the width of one fused launch; <= 0 selects 64.
	MaxBatch int
	// BatchWindow enables the cross-request batch coalescer: executions
	// that share a matrix fingerprint within this window are fused into
	// one guarded multi-vector launch (results byte-identical to the
	// sequential path, per-request error isolation) and demuxed back.
	// Reaching MaxBatch pending vectors flushes the batch early. 0
	// disables coalescing — every execution takes the single-vector path
	// exactly as before.
	BatchWindow time.Duration
	// MaxMatrices bounds resident uploaded matrices; the oldest upload is
	// dropped beyond it. <= 0 selects 1024.
	MaxMatrices int
	// Cache configures the shared tuning-plan cache.
	Cache plancache.Options
	// Trace receives one JSONL span per pipeline phase of every traced
	// request (see internal/trace). Nil disables emission. Requests are
	// tagged with their own trace IDs, so one Writer serves the daemon.
	Trace *trace.Writer
	// DisableCounters turns off device performance-counter collection on
	// guarded executions. Counters are on by default in the server — they
	// feed /metrics and GET /v1/profiles — and cost one nil check per
	// collection site when disabled.
	DisableCounters bool
	// Retrain, when non-nil, receives an Observation for every clean SpMV
	// execution — the online learning loop's evidence feed. New registers
	// the server's AdoptModel as the service's promotion callback, so a
	// gated-in model hot-swaps into the framework AND bumps the plan
	// cache's wanted model version in one step.
	Retrain *retrain.Service
	// MaxSessions bounds resident solver sessions (see POST /v1/solve).
	// At capacity the oldest idle session is evicted to admit a new one;
	// if every session is busy the create is rejected with 429. <= 0
	// selects 64.
	MaxSessions int
	// SessionTTL evicts solver sessions idle longer than this (swept
	// lazily on session operations). <= 0 selects 10m.
	SessionTTL time.Duration
	// Breaker tunes the per-matrix tuning circuit breaker (zero value
	// selects the defaults; set Disabled to turn it off).
	Breaker BreakerConfig
	// Clock overrides the time source the breaker uses; nil selects
	// time.Now. Tests inject a fake clock to step through cooldowns.
	Clock func() time.Time

	// The three hooks below are the service-layer chaos injection points
	// (see internal/chaos). All are nil in production and cost one nil
	// check each when unset.
	//
	// TuneHook runs at the start of every actual plan computation (inside
	// the singleflight leader). Returning an error fails the tune; the
	// hook may sleep to inject tuning latency, or panic to exercise the
	// compute panic containment.
	TuneHook func(ctx context.Context) error
	// ExecHook runs on the request goroutine before every guarded SpMV
	// execution; it may panic to exercise the handler panic containment.
	ExecHook func()
	// FaultHook supplies a per-request device fault plan for guarded
	// executions, composing service chaos with the hsa simulator faults.
	FaultHook func() *hsa.FaultPlan
}

func (c Config) withDefaults() Config {
	zero := mmio.Limits{}
	if c.Limits == zero {
		c.Limits = mmio.DefaultLimits()
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.ExecWorkers <= 0 {
		c.ExecWorkers = 1
	}
	// Worker-pool × request-pool must not oversubscribe the host: clamp the
	// per-request bin pool so the product stays within GOMAXPROCS.
	if c.ExecWorkers > 1 {
		if limit := runtime.GOMAXPROCS(0); c.Workers*c.ExecWorkers > limit {
			c.ExecWorkers = limit / c.Workers
			if c.ExecWorkers < 1 {
				c.ExecWorkers = 1
			}
		}
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	c.DefaultTimeout = min(c.DefaultTimeout, c.MaxTimeout)
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxMatrices <= 0 {
		c.MaxMatrices = 1024
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 10 * time.Minute
	}
	c.Breaker = c.Breaker.withDefaults()
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// matrixEntry is one uploaded matrix with its precomputed cache key.
type matrixEntry struct {
	ID          string
	Fingerprint string
	A           *sparse.CSR
}

// Server implements http.Handler for the spmvd API.
type Server struct {
	cfg   Config
	cache *plancache.Cache
	mux   *http.ServeMux

	mu       sync.RWMutex
	matrices map[string]*matrixEntry
	order    []string // upload order, for capacity eviction
	profiles map[string]*profileRecord

	queue chan struct{} // waiting + executing SpMV requests
	sem   chan struct{} // executing SpMV requests

	bmu      sync.Mutex
	breakers map[string]*breaker // per-matrix tuning circuit breakers

	smu      sync.Mutex
	sessions map[string]*session // resident solver sessions (see session.go)
	sessSeq  atomic.Int64

	co *coalescer // cross-request batch coalescer; nil when BatchWindow is 0

	draining atomic.Bool // set by Drain; /readyz reports 503

	traceSeq atomic.Int64 // generated per-request trace IDs

	m metrics
}

// profileRecord is the evidence of the most recent guarded execution
// against one matrix: its per-bin profiles and the trace ID that tags the
// run's spans.
type profileRecord struct {
	TraceID  string
	Degraded bool
	Profiles []plan.ExecProfile
}

// New builds a Server around a framework. The framework's model may be nil
// — the predict path then degrades to the serial fallback plan, which is
// the guarded layer's contract — but the framework itself is required.
func New(cfg Config) (*Server, error) {
	if cfg.Framework == nil {
		return nil, fmt.Errorf("server: Config.Framework is required")
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		cache:    plancache.New(cfg.Cache),
		matrices: make(map[string]*matrixEntry),
		profiles: make(map[string]*profileRecord),
		breakers: make(map[string]*breaker),
		sessions: make(map[string]*session),
		queue:    make(chan struct{}, cfg.Workers+cfg.QueueDepth),
		sem:      make(chan struct{}, cfg.Workers),
	}
	if cfg.BatchWindow > 0 {
		s.co = newCoalescer(s, cfg.BatchWindow)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/matrices", s.instrument(epMatrices, s.handleUpload))
	mux.HandleFunc("POST /v1/spmv", s.instrument(epSpMV, s.handleSpMV))
	mux.HandleFunc("POST /v1/solve", s.instrument(epSolve, s.handleSolve))
	mux.HandleFunc("POST /v1/solve/{id}/iterate", s.instrument(epIterate, s.handleIterate))
	mux.HandleFunc("GET /v1/solve/{id}", s.instrument(epSession, s.handleSession))
	mux.HandleFunc("DELETE /v1/solve/{id}", s.instrument(epSession, s.handleRelease))
	mux.HandleFunc("GET /v1/plans/{id}", s.instrument(epPlans, s.handlePlan))
	mux.HandleFunc("GET /v1/profiles/{id}", s.instrument(epProfiles, s.handleProfiles))
	mux.HandleFunc("GET /healthz", s.instrument(epHealthz, s.handleHealthz))
	mux.HandleFunc("GET /readyz", s.instrument(epReadyz, s.handleReadyz))
	mux.HandleFunc("GET /metrics", s.instrument(epMetrics, s.handleMetrics))
	s.mux = mux
	// Anchor the cache's wanted model version to the model serving now, so
	// plans persisted by an older model re-tune instead of being served
	// stale; register the promotion hook that keeps the two in lockstep.
	s.cache.SetModelVersion(core.ModelVersion(cfg.Framework.Model()))
	if cfg.Retrain != nil {
		cfg.Retrain.SetPromote(s.AdoptModel)
	}
	return s, nil
}

// AdoptModel installs a new kernel-selection model: hot-swap it into the
// live framework (requests pick it up on their next atomic load — an
// in-flight request keeps the snapshot it started with, never a torn mix)
// and bump the plan cache's wanted model version so plans tuned by the
// previous model are evicted and re-tuned on next use. The retrain
// service calls this on every gated-in promotion.
func (s *Server) AdoptModel(m *core.Model, version string) {
	s.cfg.Framework.SwapModel(m)
	s.cache.SetModelVersion(version)
}

// Drain prepares the server for shutdown: /readyz starts reporting 503 so
// load balancers stop routing here, new solver-session creates are
// rejected and every idle session is evicted (a busy one finishes its
// in-flight iterate — its client sees the eviction on the next request),
// and every resident tuning plan is flushed to the persistence dir —
// including entries whose earlier saves failed — so a rolling restart
// never loses tuned plans. It returns the number of plans persisted.
func (s *Server) Drain() (int, error) {
	s.draining.Store(true)
	s.evictIdle(math.MaxInt64)
	return s.cache.Flush()
}

// RecoverCache sweeps the plan-cache persistence dir (see
// plancache.Cache.Recover): abandoned temp files from an interrupted save
// are removed and corrupt entries are quarantined, so everything left is
// loadable. spmvd runs it once at startup.
func (s *Server) RecoverCache() (plancache.RecoverStats, error) {
	return s.cache.Recover()
}

// ServeHTTP dispatches to the API mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// CacheStats exposes the plan-cache counters (also on /metrics).
func (s *Server) CacheStats() plancache.Stats { return s.cache.Stats() }

// MatrixCount returns the number of resident uploaded matrices.
func (s *Server) MatrixCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.matrices)
}

// statusRecorder captures the response status for error accounting and
// whether anything was written yet — once it has, writeError can no longer
// send a status and appends its error line instead.
type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.wrote = true
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(p)
}

// Flush forwards streaming flushes (the JSONL solve stream) to the
// underlying writer when it supports them.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with request/latency/error accounting and the
// process's last panic containment boundary: a panicking handler or
// worker — chaos-injected or real — becomes one classed 500 response
// instead of a dead daemon. net/http would also stop the panic from
// killing the process, but it kills the connection without a response;
// this boundary keeps the "every request gets a well-formed classed
// answer" invariant.
func (s *Server) instrument(ep int, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.m.requests[ep].Add(1)
		s.m.inflight.Add(1)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			if p := recover(); p != nil {
				s.m.panics.Add(1)
				s.writeError(rec, errdefs.Panicf("server: %s handler panicked: %v", endpointNames[ep], p))
			}
			s.m.inflight.Add(-1)
			s.m.latencyNs[ep].Add(time.Since(start).Nanoseconds())
			if rec.status >= 400 {
				s.m.errors[ep].Add(1)
			}
		}()
		h(rec, r)
	}
}

// apiError is a failure the server classes itself rather than through
// errdefs — an unknown ID, a busy session, a full queue, an oversized body —
// carrying its wire class and status to the one error writer.
type apiError struct {
	class  string
	status int
	detail string
}

func (e *apiError) Error() string { return e.detail }

func notFound(f string, a ...any) error {
	return &apiError{"not_found", http.StatusNotFound, fmt.Sprintf(f, a...)}
}

func busy(f string, a ...any) error {
	return &apiError{"busy", http.StatusConflict, fmt.Sprintf(f, a...)}
}

func overloaded(f string, a ...any) error {
	return &apiError{"overloaded", http.StatusTooManyRequests, fmt.Sprintf(f, a...)}
}

// tooLarge turns a body read stopped at MaxBodyBytes into the API's one
// 413, the same on every endpoint that reads a body; any other error
// passes through.
func tooLarge(err error) error {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return &apiError{"invalid", http.StatusRequestEntityTooLarge, fmt.Sprintf("body exceeds %d bytes", mbe.Limit)}
	}
	return err
}

// errorClass maps an error to its wire class and HTTP status: the one table
// of the error contract, so clients branch without parsing detail strings.
// The server's own apiErrors and a solver breakdown (422: the math failed
// on this input, neither a client bug nor a server fault) sit on top of the
// errdefs taxonomy, whose every class must map to a deliberate status here
// — errclass_test.go enforces it against errdefs.Classes().
func errorClass(err error) (string, int) {
	var ae *apiError
	switch {
	case errors.As(err, &ae):
		return ae.class, ae.status
	case errors.Is(err, solvers.ErrBreakdown):
		return "breakdown", http.StatusUnprocessableEntity
	case errors.Is(err, errdefs.ErrInvalidMatrix):
		return "invalid", http.StatusBadRequest
	case errors.Is(err, errdefs.ErrCanceled):
		return "canceled", http.StatusGatewayTimeout
	case errors.Is(err, errdefs.ErrBudgetExceeded):
		return "budget_exceeded", http.StatusInternalServerError
	case errors.Is(err, errdefs.ErrKernelFault):
		return "kernel_fault", http.StatusInternalServerError
	case errors.Is(err, errdefs.ErrUnavailable):
		return "unavailable", http.StatusServiceUnavailable
	case errors.Is(err, errdefs.ErrPanic):
		return "panic", http.StatusInternalServerError
	}
	return "internal", http.StatusInternalServerError
}

// writeError is the one producer of error bodies. Once the response has
// begun (a streamed solve past its 200 header) the error is the stream's
// last JSONL line and its status is recorded for accounting only.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	class, status := errorClass(err)
	if class == "canceled" {
		s.m.canceled.Add(1)
	}
	body := map[string]string{"error": class, "detail": err.Error()}
	if rec, ok := w.(*statusRecorder); ok && rec.wrote {
		rec.status = status
		_ = json.NewEncoder(w).Encode(body)
		return
	}
	if status == http.StatusConflict || status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	s.writeJSON(w, status, body)
}

// writeJSON encodes v, then sends it with status in one Write. Encoding
// comes first because it can fail — a product or residual that is NaN or
// ±Inf has no JSON form — and a failure must still be able to answer with
// an error status instead of a 200 with an empty body. The encoded length
// is then known, and sent as Content-Length: net/http would otherwise frame
// a body past its 2 KiB buffer as chunked.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	buf, err := encodeResponse(v)
	defer respPool.put(buf)
	if err != nil {
		s.writeError(w, nonFinite(err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(buf)))
	w.WriteHeader(status)
	_, _ = w.Write(buf) // a failed write means the client is gone
}

// nonFinite classes a response the encoder refused: the only values in the
// API's responses without a JSON form are non-finite floats, which a finite
// request reaches only through its matrix (a NaN or Inf entry, or products
// that overflow) — the client's input, so invalid.
func nonFinite(err error) error {
	return errdefs.Invalidf("server: result is not finite and cannot be encoded: %v", err)
}

// admit is the one way into the worker pool (spmv, solve, iterate): the
// request's context — client disconnect plus its deadline, clamped to
// MaxTimeout, or the default — and a worker slot. A full queue is a 429
// (spmvd_rejected_total), a deadline expiring in the queue a 504; on either
// the error is written and ok is false. release ends the admission: the
// slot if still held, then the context. park only hands the slot back
// (see multiply). Both are idempotent.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, timeoutMs int) (ctx context.Context, park, release func(), ok bool) {
	d := s.cfg.DefaultTimeout
	if timeoutMs > 0 {
		d = min(time.Duration(timeoutMs)*time.Millisecond, s.cfg.MaxTimeout)
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	select {
	case s.queue <- struct{}{}:
	default:
		cancel()
		s.m.rejected.Add(1)
		s.writeError(w, overloaded("worker queue full"))
		return nil, nil, nil, false
	}
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		<-s.queue
		s.writeError(w, errdefs.Canceled(ctx.Err()))
		cancel()
		return nil, nil, nil, false
	}
	held := true
	park = func() {
		if held {
			held = false
			<-s.sem
			<-s.queue
		}
	}
	return ctx, park, func() { park(); cancel() }, true
}

// planFor fetches the matrix's tuning plan through the degradation
// ladder: the cached plan if resident (even with an open breaker — a
// known-good plan always beats the degraded one), else a tune through the
// shared cache's singleflight, else — when the matrix's circuit breaker
// is open — the always-available degraded serial plan (one Kernel-Serial
// bin, built from the matrix alone) instead of an error. The degraded
// return reports the bottom rung was served; such responses carry
// degraded:true and count in spmvd_degraded_total.
//
// Tuning outcomes are recorded on the breaker inside the compute callback
// — exactly once per actual tuning pass, however many singleflight
// followers share its result — and a panicking tune is contained right
// there so it is both classed and counted.
func (s *Server) planFor(ctx context.Context, e *matrixEntry, traceID string) (p *plan.TuningPlan, cacheHit, degraded bool, err error) {
	if p, ok := s.cache.Get(e.Fingerprint); ok {
		return p, true, false, nil
	}
	br := s.breakerFor(e.ID)
	if br != nil {
		proceed, probe := br.allow()
		if probe {
			s.m.breakerProbes.Add(1)
		}
		if !proceed {
			s.m.degradedServed.Add(1)
			return core.SerialFallbackPlan(e.A, e.Fingerprint), false, true, nil
		}
	}
	p, cacheHit, err = s.cache.GetOrCompute(ctx, e.Fingerprint, func(ctx context.Context) (tp *plan.TuningPlan, terr error) {
		defer func() {
			if rec := recover(); rec != nil {
				tp, terr = nil, errdefs.Panicf("server: tuning panicked: %v", rec)
			}
			s.recordTuneOutcome(br, terr)
		}()
		if hook := s.cfg.TuneHook; hook != nil {
			if herr := hook(ctx); herr != nil {
				return nil, herr
			}
		}
		return s.cfg.Framework.PlanTraced(ctx, e.A, e.Fingerprint, s.cfg.Trace, traceID)
	})
	if err != nil && br != nil && br.isOpen() {
		// The failure tripped (or joined an already-open) breaker: serve
		// the degraded plan instead of propagating a 5xx.
		s.m.degradedServed.Add(1)
		return core.SerialFallbackPlan(e.A, e.Fingerprint), false, true, nil
	}
	return p, cacheHit, false, err
}

// recordTuneOutcome folds one actual tuning pass's result into the
// matrix's breaker.
func (s *Server) recordTuneOutcome(br *breaker, err error) {
	if br == nil {
		return
	}
	if err == nil {
		br.onSuccess()
		return
	}
	if !tuneFailure(err) {
		return
	}
	if br.onFailure() {
		s.m.breakerTrips.Add(1)
	}
}

// guardOpts derives the per-request guarded-execution options: the
// configured guard settings plus counter collection (unless disabled) and
// the request's trace binding.
func (s *Server) guardOpts(traceID string) core.GuardOptions {
	opt := s.cfg.Guard
	opt.Counters = !s.cfg.DisableCounters
	opt.Trace = s.cfg.Trace
	opt.TraceID = traceID
	opt.Workers = s.cfg.ExecWorkers
	if s.cfg.FaultHook != nil {
		if fp := s.cfg.FaultHook(); fp != nil {
			opt.Faults = fp
		}
	}
	return opt
}

// requestTraceID resolves the trace ID for one request: the client's own
// ID when given, a generated one when tracing is on, empty otherwise.
func (s *Server) requestTraceID(supplied, matrixID string) string {
	if supplied != "" || s.cfg.Trace == nil {
		return supplied
	}
	return fmt.Sprintf("%s-%d", matrixID, s.traceSeq.Add(1))
}

// execute runs one guarded launch of width len(vs) of plan p — us[i]
// receives A times vs[i] — and is the one place an execution is accounted
// for: the spmvd_* vector, degradation and device counters, and the
// profile/retrain evidence, each judged by this execution alone. The
// stateless handler and session iterates call it at width 1, the coalescer's
// flush at the batch's width. Callers read vector i's share of the outcome
// off the report with vectorOutcome.
func (s *Server) execute(ctx context.Context, e *matrixEntry, p *plan.TuningPlan, opt core.GuardOptions, traceID string, vs, us [][]float64) (*core.BatchReport, error) {
	rep, err := s.cfg.Framework.ExecutePlanBatchOpts(ctx, p, e.A, vs, us, opt)
	if err != nil {
		return rep, err
	}
	anyDegraded := false
	for i := range vs {
		if rep.VectorDegraded(i) {
			anyDegraded = true
			s.m.degraded.Add(1)
		}
		if pv := rep.PerVector[i]; pv != nil {
			s.m.observeReport(pv)
		}
	}
	s.m.vectors.Add(int64(len(vs)))
	s.m.observeReport(rep.Shared)
	s.recordEvidence(e, p, traceID, rep.Shared, anyDegraded, len(vs))
	return rep, nil
}

// multiply serves us[i] = A·vs[i] under plan p — the one place the
// coalescing choice is made — and returns whether any vector deviated from
// the clean path and the summed fallbacks. Without a coalescer each vector
// is its own guarded launch. With one, every vector is enqueued before any
// is waited on (a multi-vector request fuses with itself too) and park, if
// non-nil, runs in between: the fused launch runs on the flush goroutine,
// so a stateless waiter holding its slot would starve the requests its
// batch waits to fuse with (at -workers 1, B could never exceed 1). A
// session iterate passes nil and keeps its slot across its multiplies.
// A nil us[i] is given a result buffer from scratchPool — with a
// coalescer, the batch item's, which the flush wrote and nothing else holds
// once it is done — and the caller gives it back once it has sent it; a
// non-nil us[i] (a session's stepper buffer) receives a copy. A done
// item's other buffers go back here; an item whose waiter gave up keeps
// them, for its flush may still run, and leaves them to the GC.
func (s *Server) multiply(ctx context.Context, e *matrixEntry, p *plan.TuningPlan, traceID string, vs, us [][]float64, park func()) (degraded bool, fallbacks int, err error) {
	if s.cfg.ExecHook != nil {
		s.cfg.ExecHook()
	}
	opt := s.guardOpts(traceID)
	add := func(d bool, f int) { degraded, fallbacks = degraded || d, fallbacks+f }
	if s.co == nil {
		for i := range vs {
			if us[i] == nil {
				us[i] = scratchPool.get(e.A.Rows)
			}
			rep, err := s.execute(ctx, e, p, opt, traceID, vs[i:i+1], us[i:i+1])
			if err != nil {
				return false, 0, err
			}
			add(vectorOutcome(rep, 0))
		}
		return degraded, fallbacks, nil
	}
	items := make([]*batchItem, len(vs))
	for i, v := range vs {
		items[i] = s.co.enqueue(e, p, opt, traceID, v)
	}
	if park != nil {
		park()
	}
	for i, it := range items {
		d, f, err := s.co.wait(ctx, it)
		if err != nil {
			return false, 0, err
		}
		scratchPool.put(it.v)
		if us[i] == nil {
			us[i] = it.u
		} else {
			copy(us[i], it.u)
			scratchPool.put(it.u)
		}
		add(d, f)
	}
	return degraded, fallbacks, nil
}

// vectorOutcome demuxes request i of an execution: whether it deviated from
// the clean path (the shared launch chain degraded, or the vector was
// isolated out of it) and how many bins fell back on its behalf.
func vectorOutcome(rep *core.BatchReport, i int) (degraded bool, fallbacks int) {
	fallbacks = rep.Shared.Fallbacks
	if pv := rep.PerVector[i]; pv != nil {
		fallbacks += pv.Fallbacks
	}
	return rep.VectorDegraded(i), fallbacks
}

// handleUpload ingests a Matrix Market body. The parser is the hardened
// limit-checked reader — a hostile header cannot OOM the daemon — and the
// matrix ID is derived from the structural fingerprint, so re-uploading
// the same structure answers the same ID. Re-uploading it with other values
// replaces the stored entry: later requests multiply by the latest upload's
// values, while sessions already open keep the entry they resolved. Plans
// stay valid, as they depend on the structure alone. A body declared past
// MaxBodyBytes is refused unread, as the JSON endpoints refuse one; an
// undeclared one is parsed until the limit trips. The time from handler
// entry to the built CSR is the upload's decode stage
// (spmvd_decode_seconds).
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if err := s.declaredTooLarge(r); err != nil {
		s.writeError(w, tooLarge(err))
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	a, err := mmio.ReadWithLimits(body, s.cfg.Limits)
	if err != nil {
		s.writeError(w, tooLarge(err))
		return
	}
	s.m.decodes[epMatrices].Add(1)
	s.m.decodeNs[epMatrices].Add(time.Since(start).Nanoseconds())
	fp := plan.Fingerprint(a)
	id := fp[:matrixIDLen]

	// The values are compared outside s.mu (a stored matrix is never
	// mutated, only replaced). The stored entry stays only if it is the one
	// compared and holds the same bits — the same bytes, so they are
	// compared as bytes; otherwise this upload is the latest.
	s.mu.RLock()
	old := s.matrices[id]
	s.mu.RUnlock()
	same := old != nil && bytes.Equal(valueBytes(old.A.Val), valueBytes(a.Val))

	s.mu.Lock()
	if cur, exists := s.matrices[id]; exists && (cur != old || !same) {
		s.matrices[id] = &matrixEntry{ID: id, Fingerprint: fp, A: a}
	} else if !exists {
		s.matrices[id] = &matrixEntry{ID: id, Fingerprint: fp, A: a}
		s.order = append(s.order, id)
		for len(s.order) > s.cfg.MaxMatrices {
			oldest := s.order[0]
			s.order = s.order[1:]
			delete(s.matrices, oldest)
			delete(s.profiles, oldest)
			s.dropBreaker(oldest)
		}
	}
	s.mu.Unlock()

	s.writeJSON(w, http.StatusCreated, map[string]any{
		"id":          id,
		"fingerprint": fp,
		"rows":        a.Rows,
		"cols":        a.Cols,
		"nnz":         a.NNZ(),
	})
}

// valueBytes is the memory of v as bytes: two value slices hold the same
// bits exactly when these are equal.
func valueBytes(v []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 8*len(v))
}

// matrix resolves an uploaded matrix ID.
func (s *Server) matrix(id string) (*matrixEntry, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if e, ok := s.matrices[id]; ok {
		return e, nil
	}
	return nil, notFound("unknown matrix id %s", id)
}

// spmvResponse is the body of a successful POST /v1/spmv.
type spmvResponse struct {
	Matrix   string `json:"matrix"`
	Plan     string `json:"plan"` // plan fingerprint
	U        int    `json:"u"`
	CacheHit bool   `json:"cacheHit"`
	// Degraded reports the run deviated from the clean tuned path —
	// either the breaker served the degraded plan instead of tuning
	// (DegradedReason "breaker_open") or the guarded executor needed its
	// fallback chain.
	Degraded       bool        `json:"degraded"`
	DegradedReason string      `json:"degradedReason,omitempty"`
	Fallbacks      int         `json:"fallbacks"`
	TraceID        string      `json:"traceId,omitempty"`
	Result         []float64   `json:"result,omitempty"`
	Results        [][]float64 `json:"results,omitempty"`
	ElapsedMs      float64     `json:"elapsedMs"`
}

// handleSpMV executes one or a batch of tuned multiplications: decode →
// resolve the matrix → admit → plan via the shared cache (singleflight) →
// multiply → respond. The request's vectors and its results are
// scratchPool's buffers, given back on every path once the response is
// written: nothing reads them past multiply, whose coalesced items copy
// their vectors.
func (s *Server) handleSpMV(w http.ResponseWriter, r *http.Request) {
	req, ok := readRequest(s, w, r, epSpMV, func(body []byte) (*SpMVRequest, bool, error) {
		return decodeSpMV(body, s.cfg.MaxBatch, true)
	})
	if !ok {
		return
	}
	defer req.release()
	e, err := s.matrix(req.Matrix)
	if err != nil {
		s.writeError(w, err)
		return
	}
	vecs := req.Batch()
	for i, vec := range vecs {
		if len(vec) != e.A.Cols {
			s.writeError(w, errdefs.Invalidf("server: vector %d has length %d, matrix has %d columns", i, len(vec), e.A.Cols))
			return
		}
	}
	ctx, park, release, ok := s.admit(w, r, req.TimeoutMs)
	if !ok {
		return
	}
	defer release()

	start := time.Now()
	traceID := s.requestTraceID(req.TraceID, e.ID)
	p, cacheHit, planDegraded, err := s.planFor(ctx, e, traceID)
	if err != nil {
		s.writeError(w, err)
		return
	}
	resp := spmvResponse{Matrix: e.ID, Plan: p.Fingerprint, U: p.U, CacheHit: cacheHit, TraceID: traceID}
	resp.Results = make([][]float64, len(vecs))
	defer recycle(resp.Results)
	degraded, fallbacks, err := s.multiply(ctx, e, p, traceID, vecs, resp.Results, park)
	if err != nil {
		s.writeError(w, err)
		return
	}
	resp.Degraded, resp.Fallbacks = planDegraded || degraded, fallbacks
	if planDegraded {
		resp.DegradedReason = "breaker_open"
	}
	if len(req.Vector) > 0 {
		resp.Result, resp.Results = resp.Results[0], nil
	}
	resp.ElapsedMs = float64(time.Since(start).Nanoseconds()) / 1e6
	s.writeJSON(w, http.StatusOK, resp)
}

// handlePlan returns the tuning plan for an uploaded matrix, computing and
// caching it if no request has needed it yet.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	e, err := s.matrix(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.DefaultTimeout)
	defer cancel()
	p, _, _, err := s.planFor(ctx, e, "")
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, p)
}

// profilesResponse is the body of GET /v1/profiles/{id}: the matrix's
// tuning plan with the per-bin execution profiles of its most recent
// guarded run attached (TuningPlan.Profiles), plus the trace ID tagging
// that run's spans.
type profilesResponse struct {
	Matrix   string           `json:"matrix"`
	TraceID  string           `json:"traceId,omitempty"`
	Degraded bool             `json:"degraded"`
	Plan     *plan.TuningPlan `json:"plan"`
}

// handleProfiles returns the execution evidence for an uploaded matrix:
// 404 until at least one SpMV has run against it (profiles are measured,
// never synthesized).
func (s *Server) handleProfiles(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e, err := s.matrix(id)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.mu.RLock()
	rec := s.profiles[id]
	s.mu.RUnlock()
	if rec == nil {
		s.writeError(w, notFound("no execution profiled yet for matrix %s — POST /v1/spmv first", id))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.DefaultTimeout)
	defer cancel()
	p, _, _, err := s.planFor(ctx, e, "")
	if err != nil {
		s.writeError(w, err)
		return
	}
	// Attach the evidence to a copy: the cached plan stays immutable.
	withProfiles := *p
	withProfiles.Profiles = rec.Profiles
	s.writeJSON(w, http.StatusOK, profilesResponse{
		Matrix:   id,
		TraceID:  rec.TraceID,
		Degraded: rec.Degraded,
		Plan:     &withProfiles,
	})
}

// degradedReasons collects every condition under which the daemon is
// alive but not fully healthy. Order is stable for tests.
func (s *Server) degradedReasons() []string {
	var reasons []string
	if err := s.cache.ProbeDisk(); err != nil {
		reasons = append(reasons, "cache-dir-unwritable: "+err.Error())
	}
	if open, _ := s.breakerCounts(); open > 0 {
		reasons = append(reasons, fmt.Sprintf("breaker-open: %d matrices degraded", open))
	}
	return append(reasons, s.notReadyReasons()...)
}

// notReadyReasons collects the conditions under which the daemon should
// not receive new traffic: the worker queue is saturated or a drain has
// begun.
func (s *Server) notReadyReasons() []string {
	var reasons []string
	if len(s.queue) >= cap(s.queue) {
		reasons = append(reasons, "queue-saturated")
	}
	if s.draining.Load() {
		reasons = append(reasons, "draining")
	}
	return reasons
}

// handleHealthz is liveness plus degradation visibility: always 200 while
// the process can answer (a degraded daemon must not be restarted into a
// crash loop by its orchestrator), with status "ok" or "degraded" and the
// reasons. Routing decisions belong to /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	reasons := s.degradedReasons()
	if len(reasons) == 0 {
		s.writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"status": "degraded", "reasons": reasons})
}

// handleReadyz is the load-balancer signal: 503 with the not-ready
// reasons. Breaker-open matrices and an unwritable cache dir do NOT fail
// readiness: the daemon still serves every request (degraded), which
// beats removing it from rotation.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	reasons := s.notReadyReasons()
	if len(reasons) == 0 {
		s.writeJSON(w, http.StatusOK, map[string]any{"ready": true})
		return
	}
	s.writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reasons": reasons})
}

// handleMetrics renders the cache and request counters as a plain-text
// exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	st := s.cache.Stats()
	fmt.Fprintf(w, "spmvd_plan_cache_hits %d\n", st.Hits)
	fmt.Fprintf(w, "spmvd_plan_cache_misses %d\n", st.Misses)
	fmt.Fprintf(w, "spmvd_plan_cache_disk_hits %d\n", st.DiskHits)
	fmt.Fprintf(w, "spmvd_plan_cache_evictions %d\n", st.Evictions)
	fmt.Fprintf(w, "spmvd_plan_cache_expirations %d\n", st.Expirations)
	fmt.Fprintf(w, "spmvd_plan_cache_entries %d\n", st.Entries)
	fmt.Fprintf(w, "spmvd_plan_cache_persist_errors %d\n", st.PersistErrors)
	fmt.Fprintf(w, "spmvd_plan_cache_quarantined %d\n", st.Quarantined)
	fmt.Fprintf(w, "spmvd_plan_cache_stale_evictions %d\n", st.StaleEvictions)
	// The tuning sum/count pair exposes the mean wall-clock cost a cache
	// miss pays computing its plan — the latency the cache amortizes away.
	fmt.Fprintf(w, "spmvd_tune_seconds_sum %.6f\n", float64(st.TuneNs)/1e9)
	fmt.Fprintf(w, "spmvd_tune_seconds_count %d\n", st.Tunes)
	// The search cost cache sits below the plan cache: it amortizes the
	// per-bin kernel simulations inside one exhaustive search, while the
	// plan cache above amortizes whole tuning plans across requests.
	ss := core.SearchCacheStats()
	fmt.Fprintf(w, "spmvd_search_cache_hits %d\n", ss.Hits)
	fmt.Fprintf(w, "spmvd_search_cache_misses %d\n", ss.Misses)
	fmt.Fprintf(w, "spmvd_search_cache_pruned %d\n", ss.Pruned)
	// Parameter-space families: candidate cells enumerated across all
	// searches (whatever the configured kernel space) and best-U bins won by
	// a synthesized — non-pool — kernel.
	sps := core.SearchSpaceStats()
	fmt.Fprintf(w, "spmvd_search_space_cells %d\n", sps.SpaceCells)
	fmt.Fprintf(w, "spmvd_search_synth_wins_total %d\n", sps.SynthWins)
	// Launches of the guarded executor that ran the device simulator versus
	// those that replayed a memoized launch's accounting: a plan's first
	// execution per (bin, width) simulates, every later fault-free one
	// replays — simulated keeps climbing only while plans are cold.
	simulated, replayed := s.cfg.Framework.LaunchCounts()
	fmt.Fprintf(w, "spmvd_launch_simulated_total %d\n", simulated)
	fmt.Fprintf(w, "spmvd_launch_replayed_total %d\n", replayed)
	fmt.Fprintf(w, "spmvd_matrices_stored %d\n", s.MatrixCount())
	// Solver-session gauge: how many resident sessions hold a pinned plan
	// and scratch right now. The iteration/eviction counters live in
	// writeTo with the other totals.
	fmt.Fprintf(w, "spmvd_sessions_active %d\n", s.SessionCount())
	// Bytes the request path's recycled buffers hold, process-wide: at most
	// classBytes for each of bodies, vectors and responses.
	fmt.Fprintf(w, "spmvd_recycled_bytes %d\n", recycledBytes())
	// Breaker state gauges: how many matrices are currently tripped (open)
	// or probing (half-open), alongside the trip/probe counters writeTo
	// emits.
	open, halfOpen := s.breakerCounts()
	fmt.Fprintf(w, "spmvd_breaker_open %d\n", open)
	fmt.Fprintf(w, "spmvd_breaker_half_open %d\n", halfOpen)
	// Online-learning families. Always emitted — zeros when the retrain
	// loop is disabled — so scrapers and the golden-name test see a stable
	// exposition either way. spmvd_model_version is the promotion
	// generation (0 = still serving the boot model); spmvd_model_regret is
	// the served model's held-out geo-mean regret as of the last gate
	// evaluation.
	var rst retrain.Stats
	if s.cfg.Retrain != nil {
		rst = s.cfg.Retrain.Stats()
	}
	fmt.Fprintf(w, "spmvd_model_version %d\n", rst.Generation)
	fmt.Fprintf(w, "spmvd_model_regret %.6f\n", rst.ModelRegret)
	fmt.Fprintf(w, "spmvd_retrain_rows_total %d\n", rst.Rows)
	fmt.Fprintf(w, "spmvd_retrain_runs_total %d\n", rst.Runs)
	fmt.Fprintf(w, "spmvd_retrain_promotions_total %d\n", rst.Promotions)
	fmt.Fprintf(w, "spmvd_retrain_rejected_total %d\n", rst.Rejected)
	s.m.writeTo(w)
}
