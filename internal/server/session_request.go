package server

import (
	"math"

	"spmvtune/internal/errdefs"
)

// Session solver identifiers accepted by POST /v1/solve. "spmv" is the
// degenerate solver: the session pins matrix + plan + output scratch and
// each iterate request carries one input vector — the resident-state
// variant of POST /v1/spmv for clients that drive their own iteration.
const (
	solverCG       = "cg"
	solverJacobi   = "jacobi"
	solverGMRES    = "gmres"
	solverPageRank = "pagerank"
	solverPower    = "power"
	solverSpMV     = "spmv"
)

// linearSolver reports whether the solver solves A x = b (and therefore
// requires b at session creation).
func linearSolver(s string) bool {
	return s == solverCG || s == solverJacobi || s == solverGMRES
}

const (
	// defaultTol is the convergence tolerance when the request leaves it 0.
	defaultTol = 1e-8
	// defaultMaxIterations bounds a session's total iteration budget when
	// the request leaves it 0; maxMaxIterations caps what a request may ask
	// for.
	defaultMaxIterations = 1000
	maxMaxIterations     = 1_000_000
	// maxStepsPerRequest caps one iterate call — a long solve is many
	// bounded requests, each individually cancellable, never one unbounded
	// handler.
	maxStepsPerRequest = 10_000
	// maxGMRESRestart caps the Krylov workspace one session may pin
	// (restart+1 basis vectors of matrix dimension each).
	maxGMRESRestart = 1000
)

// SolveRequest is the body of POST /v1/solve: create a resident solver
// session (mode "session", the default) or run a whole server-driven solve
// with convergence streamed back as JSONL (mode "run").
type SolveRequest struct {
	// Matrix is the ID returned by POST /v1/matrices.
	Matrix string `json:"matrix"`
	// Solver is one of cg, jacobi, gmres, pagerank, power, spmv.
	Solver string `json:"solver"`
	// Mode selects "session" (default: create, iterate via follow-up
	// requests) or "run" (server iterates to convergence, streaming one
	// JSONL progress line per iteration). "run" is not valid for spmv.
	Mode string `json:"mode,omitempty"`
	// B is the right-hand side for the linear solvers (cg/jacobi/gmres);
	// forbidden for the others.
	B []float64 `json:"b,omitempty"`
	// X0 is the optional start vector: initial guess for the linear
	// solvers (default zeros), start iterate for power (default all-ones)
	// and pagerank (default uniform). Forbidden for spmv.
	X0 []float64 `json:"x0,omitempty"`
	// Tol is the convergence tolerance; 0 selects 1e-8.
	Tol float64 `json:"tol,omitempty"`
	// MaxIterations is the session's total iteration budget; 0 selects
	// 1000. Ignored by spmv sessions (each product is client-driven).
	MaxIterations int `json:"maxIterations,omitempty"`
	// Restart is the GMRES restart length; 0 selects min(n, 30). Only
	// meaningful for gmres.
	Restart int `json:"restart,omitempty"`
	// Damping is the PageRank damping factor in (0,1]; 0 selects 0.85.
	// Only meaningful for pagerank.
	Damping float64 `json:"damping,omitempty"`
	// TimeoutMs caps this request's execution time (the create's tuning
	// pass, or the whole solve in run mode); 0 uses the server default.
	TimeoutMs int `json:"timeoutMs,omitempty"`
	// TraceID tags the session's pipeline spans; empty selects a generated
	// ID when tracing is enabled.
	TraceID string `json:"traceId,omitempty"`
}

// IterateRequest is the body of POST /v1/solve/{id}/iterate: advance the
// session. The body is deliberately tiny — the matrix, plan, right-hand
// side and solver state are all resident server-side; a 100-iteration CG
// solve re-uploads nothing.
type IterateRequest struct {
	// Steps is how many iterations to advance (clamped to the session's
	// remaining budget); 0 selects 1, the maximum per request is 10000.
	Steps int `json:"steps,omitempty"`
	// Vector is the input vector for spmv sessions (required there,
	// forbidden for solver sessions).
	Vector []float64 `json:"vector,omitempty"`
	// TimeoutMs caps this request's execution time; 0 uses the server
	// default.
	TimeoutMs int `json:"timeoutMs,omitempty"`
}

func checkFiniteVec(name string, v []float64) error {
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return errdefs.Invalidf("server: %s has non-finite value at %d", name, i)
		}
	}
	return nil
}

// fields is the scanner's table for this request: tag → destination.
func (r *SolveRequest) fields() []field {
	return []field{
		{"matrix", &r.Matrix},
		{"solver", &r.Solver},
		{"mode", &r.Mode},
		{"b", &r.B},
		{"x0", &r.X0},
		{"tol", &r.Tol},
		{"maxIterations", &r.MaxIterations},
		{"restart", &r.Restart},
		{"damping", &r.Damping},
		{"timeoutMs", &r.TimeoutMs},
		{"traceId", &r.TraceID},
	}
}

// fields is the scanner's table for this request: tag → destination.
func (r *IterateRequest) fields() []field {
	return []field{
		{"steps", &r.Steps},
		{"vector", &r.Vector},
		{"timeoutMs", &r.TimeoutMs},
	}
}

// decodeSolveRequest parses and validates a solve-session creation body,
// reporting whether encoding/json rather than the scanner parsed it.
// Untrusted network input: every rejection is a typed invalid-input error
// (HTTP 400), never a panic — this is half of the FuzzHTTPSolve surface.
// Dimension checks against the target matrix happen in the handler once
// the matrix is resolved.
func decodeSolveRequest(data []byte) (*SolveRequest, bool, error) {
	var req SolveRequest
	stdlib, err := unmarshalBody(data, &req, (*SolveRequest).fields)
	if err == nil {
		err = req.normalize()
	}
	if err != nil {
		return nil, stdlib, err
	}
	return &req, stdlib, nil
}

// normalize validates a decoded solve request and fills its defaults.
func (r *SolveRequest) normalize() error {
	if r.Matrix == "" {
		return errdefs.Invalidf("server: missing matrix id")
	}
	switch r.Solver {
	case solverCG, solverJacobi, solverGMRES, solverPageRank, solverPower, solverSpMV:
	case "":
		return errdefs.Invalidf("server: missing solver")
	default:
		return errdefs.Invalidf("server: unknown solver %q", r.Solver)
	}
	switch r.Mode {
	case "":
		r.Mode = "session"
	case "session":
	case "run":
		if r.Solver == solverSpMV {
			return errdefs.Invalidf("server: mode run is not valid for spmv sessions")
		}
	default:
		return errdefs.Invalidf("server: unknown mode %q", r.Mode)
	}
	if math.IsNaN(r.Tol) || math.IsInf(r.Tol, 0) || r.Tol < 0 {
		return errdefs.Invalidf("server: tol must be a finite non-negative number")
	}
	if r.Tol == 0 {
		r.Tol = defaultTol
	}
	if r.MaxIterations < 0 || r.MaxIterations > maxMaxIterations {
		return errdefs.Invalidf("server: maxIterations %d outside [0, %d]", r.MaxIterations, maxMaxIterations)
	}
	if r.MaxIterations == 0 {
		r.MaxIterations = defaultMaxIterations
	}
	if r.Restart < 0 || r.Restart > maxGMRESRestart {
		return errdefs.Invalidf("server: restart %d outside [0, %d]", r.Restart, maxGMRESRestart)
	}
	if r.Restart != 0 && r.Solver != solverGMRES {
		return errdefs.Invalidf("server: restart is only valid for gmres")
	}
	if math.IsNaN(r.Damping) || r.Damping < 0 || r.Damping > 1 {
		return errdefs.Invalidf("server: damping must be in (0,1]")
	}
	if r.Damping != 0 && r.Solver != solverPageRank {
		return errdefs.Invalidf("server: damping is only valid for pagerank")
	}
	if r.Damping == 0 {
		r.Damping = 0.85
	}
	if r.TimeoutMs < 0 {
		return errdefs.Invalidf("server: negative timeoutMs %d", r.TimeoutMs)
	}
	if len(r.TraceID) > 128 {
		return errdefs.Invalidf("server: traceId longer than 128 bytes")
	}
	if linearSolver(r.Solver) {
		if len(r.B) == 0 {
			return errdefs.Invalidf("server: solver %s requires b", r.Solver)
		}
	} else if len(r.B) > 0 {
		return errdefs.Invalidf("server: solver %s does not take b", r.Solver)
	}
	if r.Solver == solverSpMV && len(r.X0) > 0 {
		return errdefs.Invalidf("server: solver spmv does not take x0")
	}
	if err := checkFiniteVec("b", r.B); err != nil {
		return err
	}
	return checkFiniteVec("x0", r.X0)
}

// decodeIterateRequest parses and validates an iterate body — the other
// half of the FuzzHTTPSolve surface. Whether Vector is required or
// forbidden depends on the session's solver, which the handler checks.
func decodeIterateRequest(data []byte) (*IterateRequest, bool, error) {
	req := IterateRequest{Steps: 1}
	var stdlib bool
	var err error
	if len(data) > 0 {
		stdlib, err = unmarshalBody(data, &req, (*IterateRequest).fields)
	}
	if err == nil {
		err = req.normalize()
	}
	if err != nil {
		return nil, stdlib, err
	}
	return &req, stdlib, nil
}

// normalize validates a decoded iterate request and fills its defaults.
func (r *IterateRequest) normalize() error {
	if r.Steps == 0 {
		r.Steps = 1
	}
	if r.Steps < 0 || r.Steps > maxStepsPerRequest {
		return errdefs.Invalidf("server: steps %d outside [1, %d]", r.Steps, maxStepsPerRequest)
	}
	if r.TimeoutMs < 0 {
		return errdefs.Invalidf("server: negative timeoutMs %d", r.TimeoutMs)
	}
	return checkFiniteVec("vector", r.Vector)
}
