package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"spmvtune/internal/core"
	"spmvtune/internal/errdefs"
	"spmvtune/internal/plan"
	"spmvtune/internal/retrain"
	"spmvtune/internal/solvers"
	"spmvtune/internal/sparse"
)

// A session is resident iterative-workload state: the matrix, its pinned
// TuningPlan, and the solver's scratch buffers stay server-side across
// iterations, so per-iteration requests carry (almost) nothing. This is
// the serving-layer shape of the paper's amortization argument — one
// tuning pass, hundreds of multiplications — applied across HTTP
// requests instead of within one process.
//
// Concurrency contract: the registry map is guarded by Server.smu; each
// session's solver state is guarded by its own mu. Handlers TryLock the
// session — a second concurrent iterate gets 409 busy instead of
// corrupting solver state or blocking a worker slot. lastUsed and evicted
// are atomic so the TTL sweep reads the one and a release sets the other
// without the session lock.
//
// Plan pinning contract: the pinned plan is re-validated against the
// cache's wanted model version at every iteration boundary (before each
// Step), never mid-iteration — a retrain hot-swap lands between Steps,
// so one GMRES restart cycle always runs under one plan. Re-resolution
// goes through planFor, i.e. the shared cache's singleflight: N sessions
// on one matrix re-tune it exactly once after a swap.
type session struct {
	ID     string
	e      *matrixEntry
	solver string
	mode   string

	mu      sync.Mutex
	stepper solvers.Stepper // nil for spmv sessions
	u       []float64       // spmv sessions: resident output scratch
	maxIter int
	traceID string

	plan      *plan.TuningPlan
	retunes   int64
	degraded  bool
	fallbacks int64
	done      bool
	failed    error // sticky solver breakdown

	lastUsed atomic.Int64 // Config.Clock nanos; TTL sweep reads without mu
	evicted  atomic.Bool  // out of the registry; a handler holding it answers 404
}

// remaining is the session's unused iteration budget (spmv sessions are
// budgetless — the client drives every product).
func (sess *session) remaining() int {
	if sess.solver == solverSpMV {
		return 1
	}
	return sess.maxIter - sess.stepper.Status().Iterations
}

// sessionStatus is the wire form of a session's state, shared by create
// (201), iterate (200), and GET (200) responses.
type sessionStatus struct {
	Session  string `json:"session"`
	Matrix   string `json:"matrix"`
	Solver   string `json:"solver"`
	Plan     string `json:"plan"` // pinned plan fingerprint
	CacheHit bool   `json:"cacheHit,omitempty"`
	// ModelVersion is the pinned plan's model version; after a retrain
	// hot-swap it changes at the next iteration boundary, and Retunes
	// counts how many boundary re-pins this session has paid.
	ModelVersion string  `json:"modelVersion,omitempty"`
	Retunes      int64   `json:"retunes"`
	Iterations   int     `json:"iterations"`
	Residual     float64 `json:"residual"`
	Converged    bool    `json:"converged"`
	// Done means the session stopped advancing: converged, budget
	// exhausted, or broken down. Iterating a done session returns its
	// final state (with X) without work.
	Done           bool      `json:"done"`
	Degraded       bool      `json:"degraded"`
	DegradedReason string    `json:"degradedReason,omitempty"`
	Fallbacks      int64     `json:"fallbacks"`
	Lambda         float64   `json:"lambda,omitempty"` // power: dominant eigenvalue estimate
	TraceID        string    `json:"traceId,omitempty"`
	X              []float64 `json:"x,omitempty"`      // solution, when done or explicitly fetched
	Result         []float64 `json:"result,omitempty"` // spmv sessions: the product
}

// status snapshots the session under its lock. withX attaches the current
// iterate (copied — the stepper's buffer stays private).
func (sess *session) status(withX bool) sessionStatus {
	st := sessionStatus{
		Session:   sess.ID,
		Matrix:    sess.e.ID,
		Solver:    sess.solver,
		Retunes:   sess.retunes,
		Done:      sess.done,
		Degraded:  sess.degraded,
		Fallbacks: sess.fallbacks,
		TraceID:   sess.traceID,
	}
	if sess.plan != nil {
		st.Plan = sess.plan.Fingerprint
		st.ModelVersion = sess.plan.ModelVersion
	}
	if sess.degraded && sess.plan != nil && sess.plan.Fallback {
		st.DegradedReason = "breaker_open"
	}
	if sess.stepper != nil {
		s := sess.stepper.Status()
		st.Iterations, st.Residual, st.Converged = s.Iterations, s.Residual, s.Converged
		if ps, ok := sess.stepper.(*solvers.PowerStepper); ok {
			st.Lambda = ps.Lambda()
		}
		if withX {
			st.X = append([]float64(nil), sess.stepper.Solution()...)
		}
	}
	return st
}

// SessionCount returns the number of live solver sessions (the
// spmvd_sessions_active gauge).
func (s *Server) SessionCount() int {
	s.smu.Lock()
	defer s.smu.Unlock()
	return len(s.sessions)
}

// touch stamps the session's idle clock.
func (s *Server) touch(sess *session) {
	sess.lastUsed.Store(s.cfg.Clock().UnixNano())
}

// sweepSessions evicts every session idle past the TTL. Lazy — it runs at
// the head of each session operation instead of on a timer, so an idle
// daemon spends nothing.
func (s *Server) sweepSessions() {
	s.evictIdle(s.cfg.Clock().UnixNano() - s.cfg.SessionTTL.Nanoseconds())
}

// evictIdle evicts every idle session last used at or before cutoff
// (Config.Clock nanos) — the TTL sweep, and with no cutoff the drain. Busy
// sessions (TryLock fails) are by definition not idle and are skipped: they
// finish their in-flight iterate and find themselves evicted at the next.
func (s *Server) evictIdle(cutoff int64) {
	s.smu.Lock()
	defer s.smu.Unlock()
	for _, sess := range s.sessions {
		if sess.lastUsed.Load() <= cutoff && sess.mu.TryLock() {
			s.evict(sess, true)
			sess.mu.Unlock()
		}
	}
}

// evict is the one way a session leaves the registry: removed, and marked
// so a handler that resolved it just before answers 404. The caller holds
// s.smu. Client releases are not counted as evictions — the work completed.
func (s *Server) evict(sess *session, counted bool) {
	delete(s.sessions, sess.ID)
	sess.evicted.Store(true)
	if counted {
		s.m.sessionEvictions.Add(1)
	}
}

// registerSession adds a session, evicting the oldest idle one when at
// capacity. Returns false when every resident session is busy — the
// caller rejects the create rather than evicting live work.
func (s *Server) registerSession(sess *session) bool {
	s.smu.Lock()
	defer s.smu.Unlock()
	for len(s.sessions) >= s.cfg.MaxSessions {
		// Pick the oldest idle session, holding at most the current best
		// candidate's lock while scanning (all TryLock — never blocks).
		var victim *session
		var oldest int64
		for _, cand := range s.sessions {
			t := cand.lastUsed.Load()
			if victim != nil && t >= oldest {
				continue
			}
			if !cand.mu.TryLock() {
				continue
			}
			if victim != nil {
				victim.mu.Unlock()
			}
			victim, oldest = cand, t
		}
		if victim == nil {
			return false
		}
		s.evict(victim, true)
		victim.mu.Unlock()
	}
	s.sessions[sess.ID] = sess
	return true
}

// session resolves a session ID.
func (s *Server) session(id string) (*session, bool) {
	s.smu.Lock()
	defer s.smu.Unlock()
	sess, ok := s.sessions[id]
	return sess, ok
}

// lockSession resolves a live session and takes its lock: 404 for an
// unknown or evicted one. With wait false, a session locked by an iterate
// in flight is 409 busy instead of waited for.
func (s *Server) lockSession(id string, wait bool) (*session, error) {
	s.sweepSessions()
	sess, ok := s.session(id)
	switch {
	case !ok:
		return nil, notFound("unknown session %s", id)
	case wait:
		sess.mu.Lock()
	case !sess.mu.TryLock():
		return nil, busy("session %s has an iterate in flight", id)
	}
	if sess.evicted.Load() {
		sess.mu.Unlock()
		return nil, notFound("session %s was evicted", id)
	}
	return sess, nil
}

// sessionExecutor is the SpMV backend a session's stepper multiplies
// through: multiply over the session's pinned plan, with the same
// fallback-chain semantics, coalescing, accounting, and retrain evidence
// feed as the stateless POST /v1/spmv path. The iterate keeps its worker
// slot while a batch is pending — safe under sess.mu, as the flush runs on
// the window timer's goroutine or another request's, never behind this
// session's lock. Called only under sess.mu.
func (s *Server) sessionExecutor(sess *session) solvers.SpMVCtx {
	return func(ctx context.Context, v, u []float64) error {
		degraded, fallbacks, err := s.multiply(ctx, sess.e, sess.plan, sess.traceID, [][]float64{v}, [][]float64{u}, nil)
		sess.degraded = sess.degraded || degraded
		sess.fallbacks += int64(fallbacks)
		return err
	}
}

// repinIfStale re-validates the session's pinned plan against the cache's
// wanted model version. Called at iteration boundaries only (between
// Steps, under sess.mu): a retrain hot-swap mid-solve takes effect at the
// next boundary, never mid-iteration. The re-resolution funnels through
// planFor — the shared singleflight — so N sessions sharing a matrix pay
// exactly one re-tune per model rollout.
func (s *Server) repinIfStale(ctx context.Context, sess *session) error {
	want := s.cache.ModelVersion()
	if sess.plan != nil && (want == "" || sess.plan.ModelVersion == want) {
		return nil
	}
	var prev string
	had := sess.plan != nil
	if had {
		prev = sess.plan.ModelVersion
	}
	p, _, degraded, err := s.planFor(ctx, sess.e, sess.traceID)
	if err != nil {
		return err
	}
	if had && p.ModelVersion != prev {
		sess.retunes++
		s.m.sessionRetunes.Add(1)
	}
	sess.plan = p
	if degraded {
		sess.degraded = true
	}
	return nil
}

// advance runs up to steps iterations at the session's stepper,
// re-pinning the plan at each boundary. It stops early on convergence,
// budget exhaustion, breakdown (sticky, recorded on the session), or a
// context/executor error (transient, session stays resumable). Called
// under sess.mu.
func (s *Server) advance(ctx context.Context, sess *session, steps int) error {
	for i := 0; i < steps; i++ {
		if sess.remaining() <= 0 {
			sess.done = true
			return nil
		}
		if err := s.repinIfStale(ctx, sess); err != nil {
			return err
		}
		before := sess.stepper.Status().Iterations
		st, err := sess.stepper.Step(ctx)
		s.m.sessionIterations.Add(int64(st.Iterations - before))
		if err != nil {
			if errors.Is(err, solvers.ErrBreakdown) {
				sess.failed = err
				sess.done = true
			}
			return err
		}
		if st.Converged {
			sess.done = true
			return nil
		}
		if sess.remaining() <= 0 {
			sess.done = true
			return nil
		}
	}
	return nil
}

// newStepper builds the solver state machine for a session, all workspace
// preallocated. b and x0 are already length-checked by the caller.
func newStepper(req *SolveRequest, mul solvers.SpMVCtx, a *sparse.CSR) (solvers.Stepper, error) {
	x := make([]float64, a.Cols)
	copy(x, req.X0)
	switch req.Solver {
	case solverCG:
		return solvers.NewCGStepper(mul, req.B, x, req.Tol)
	case solverJacobi:
		return solvers.NewJacobiStepper(a, mul, req.B, x, req.Tol)
	case solverGMRES:
		return solvers.NewGMRESStepper(mul, req.B, x, req.Tol, req.Restart, req.MaxIterations)
	case solverPower:
		if len(req.X0) == 0 {
			for i := range x {
				x[i] = 1
			}
		}
		return solvers.NewPowerStepper(mul, x, req.Tol)
	case solverPageRank:
		return solvers.NewPageRankStepper(mul, x, req.Damping, req.Tol)
	}
	return nil, errdefs.Invalidf("server: unknown solver %q", req.Solver)
}

// handleSolve creates a solver session (mode "session") or runs a whole
// streamed solve (mode "run"). The create path pays the expensive work
// once — plan resolution through the shared cache, solver workspace
// allocation — so iterates are pure compute.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	req, ok := readRequest(s, w, r, epSolve, decodeSolveRequest)
	if !ok {
		return
	}
	if s.draining.Load() {
		s.writeError(w, errdefs.Unavailablef("server: draining — no new sessions"))
		return
	}
	e, err := s.matrix(req.Matrix)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if req.Solver != solverSpMV && e.A.Rows != e.A.Cols {
		s.writeError(w, errdefs.Invalidf("server: solver %s needs a square matrix, got %dx%d", req.Solver, e.A.Rows, e.A.Cols))
		return
	}
	if len(req.B) > 0 && len(req.B) != e.A.Rows {
		s.writeError(w, errdefs.Invalidf("server: b has length %d, matrix has %d rows", len(req.B), e.A.Rows))
		return
	}
	if len(req.X0) > 0 && len(req.X0) != e.A.Cols {
		s.writeError(w, errdefs.Invalidf("server: x0 has length %d, matrix has %d columns", len(req.X0), e.A.Cols))
		return
	}

	ctx, _, release, ok := s.admit(w, r, req.TimeoutMs)
	if !ok {
		return
	}
	defer release()

	s.sweepSessions()

	sess := &session{
		ID:      fmt.Sprintf("sv-%08x", s.sessSeq.Add(1)),
		e:       e,
		solver:  req.Solver,
		mode:    req.Mode,
		maxIter: req.MaxIterations,
		traceID: s.requestTraceID(req.TraceID, e.ID),
	}
	// Pin the plan now: the session's one tuning pass (or cache hit).
	p, cacheHit, planDegraded, err := s.planFor(ctx, e, sess.traceID)
	if err != nil {
		s.writeError(w, err)
		return
	}
	sess.plan = p
	sess.degraded = planDegraded
	if req.Solver == solverSpMV {
		sess.u = make([]float64, e.A.Rows)
	} else {
		st, err := newStepper(req, s.sessionExecutor(sess), e.A)
		if err != nil {
			if !errors.Is(err, solvers.ErrBreakdown) {
				err = errdefs.Invalidf("server: %v", err)
			}
			s.writeError(w, err)
			return
		}
		sess.stepper = st
	}

	if req.Mode == "run" {
		// Transient session: never registered, lives for this response.
		s.runSolve(ctx, w, sess)
		return
	}

	s.touch(sess)
	if !s.registerSession(sess) {
		s.writeError(w, overloaded("all %d sessions busy", s.cfg.MaxSessions))
		return
	}
	st := sess.status(false)
	st.CacheHit = cacheHit
	s.writeJSON(w, http.StatusCreated, st)
}

// runSolve is mode "run": the server drives the whole solve, streaming
// one JSONL progress line per iteration so the client watches convergence
// live, then a final line with the solution — or, when the solve fails
// (breakdown, cancellation), the error writer's line, which also accounts
// the request as failed. Cancellation (client disconnect or deadline)
// stops between iterations through the same ctx the stateless path uses.
// Model hot-swaps land at iteration boundaries here too — the stream's
// modelVersion field makes a mid-solve rollout visible to the client. A
// line with no JSON form (a non-finite residual or solution) ends the
// stream with the error writer's line instead.
func (s *Server) runSolve(ctx context.Context, w http.ResponseWriter, sess *session) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	send := func(v any) bool {
		line, err := encodeResponse(v)
		defer respPool.put(line)
		if err != nil {
			s.writeError(w, nonFinite(err))
			return false
		}
		_, _ = w.Write(line) // a gone client cancels ctx, which ends the loop
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		return true
	}
	type progress struct {
		Iter         int     `json:"iter"`
		Residual     float64 `json:"residual"`
		ModelVersion string  `json:"modelVersion,omitempty"`
		Retunes      int64   `json:"retunes,omitempty"`
	}
	for !sess.done {
		if err := s.advance(ctx, sess, 1); err != nil {
			s.writeError(w, err)
			return
		}
		st := sess.stepper.Status()
		mv := ""
		if sess.plan != nil {
			mv = sess.plan.ModelVersion
		}
		if !send(progress{Iter: st.Iterations, Residual: st.Residual, ModelVersion: mv, Retunes: sess.retunes}) {
			return
		}
	}
	final := sess.status(true)
	final.Done = true
	send(final)
}

// handleIterate advances a session. The request body is tiny (steps
// count, or one vector for spmv sessions): everything heavy is already
// resident. A busy session — another iterate in flight — answers 409
// instead of queueing, so solver state is never contended. An spmv
// session's iterate is one tuned product into the resident output buffer,
// plan re-pinned at the boundary like every other solver.
func (s *Server) handleIterate(w http.ResponseWriter, r *http.Request) {
	req, ok := readRequest(s, w, r, epIterate, decodeIterateRequest)
	if !ok {
		return
	}
	sess, err := s.lockSession(r.PathValue("id"), false)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer sess.mu.Unlock()
	defer s.touch(sess)
	spmv := sess.solver == solverSpMV
	switch {
	case sess.failed != nil:
		err = sess.failed
	case spmv && len(req.Vector) == 0:
		err = errdefs.Invalidf("server: spmv sessions require a vector per iterate")
	case spmv && len(req.Vector) != sess.e.A.Cols:
		err = errdefs.Invalidf("server: vector has length %d, matrix has %d columns", len(req.Vector), sess.e.A.Cols)
	case !spmv && len(req.Vector) > 0:
		err = errdefs.Invalidf("server: solver %s sessions do not take a vector", sess.solver)
	case sess.done:
		s.writeJSON(w, http.StatusOK, sess.status(true))
		return
	}
	if err != nil {
		s.writeError(w, err)
		return
	}

	ctx, _, release, ok := s.admit(w, r, req.TimeoutMs)
	if !ok {
		return
	}
	defer release()
	if !spmv {
		err = s.advance(ctx, sess, req.Steps)
	} else if err = s.repinIfStale(ctx, sess); err == nil {
		err = s.sessionExecutor(sess)(ctx, req.Vector, sess.u)
	}
	if err != nil {
		s.writeError(w, err)
		return
	}
	st := sess.status(sess.done)
	if spmv {
		s.m.sessionIterations.Add(1)
		st.Result = sess.u
	}
	s.writeJSON(w, http.StatusOK, st)
}

// handleSession returns a session's current state including the iterate
// (GET) — progress polling for a client that lost an iterate response.
func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	sess, err := s.lockSession(r.PathValue("id"), true)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer sess.mu.Unlock()
	s.touch(sess)
	s.writeJSON(w, http.StatusOK, sess.status(true))
}

// handleRelease deletes a session (client-driven teardown; not counted as
// an eviction — the work completed).
func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.smu.Lock()
	sess, ok := s.sessions[id]
	if ok {
		s.evict(sess, false)
	}
	s.smu.Unlock()
	if !ok {
		s.writeError(w, notFound("unknown session %s", id))
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"released": true, "session": id})
}

// recordEvidence folds one guarded run's per-bin profiles into the
// matrix's profile record (GET /v1/profiles) and the retrain service's
// evidence feed — shared by the stateless SpMV path, session executions,
// and the batch coalescer's flush (which passes the fused launch's width
// so the online loop learns B-dependent labels).
func (s *Server) recordEvidence(e *matrixEntry, p *plan.TuningPlan, traceID string, rep *core.ExecReport, degraded bool, width int) {
	if len(rep.Profiles) == 0 {
		return
	}
	s.mu.Lock()
	if _, resident := s.matrices[e.ID]; resident {
		rec := s.profiles[e.ID]
		if rec == nil {
			rec = &profileRecord{}
			s.profiles[e.ID] = rec
		}
		rec.TraceID = traceID
		rec.Degraded = degraded
		rec.Profiles = plan.AppendCappedProfiles(rec.Profiles, rep.Profiles...)
	}
	s.mu.Unlock()
	if s.cfg.Retrain != nil {
		s.cfg.Retrain.Observe(retrain.Observation{
			Fingerprint:  e.Fingerprint,
			ModelVersion: p.ModelVersion,
			A:            e.A,
			Features:     p.Features,
			U:            p.U,
			MaxBins:      p.MaxBins,
			Scheme:       p.Scheme,
			Fallback:     p.Fallback,
			Degraded:     degraded,
			Profiles:     rep.Profiles,
			Width:        width,
		})
	}
}
