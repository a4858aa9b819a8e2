package server

import (
	"math"
	"testing"
)

// FuzzHTTPSolve fuzzes the solver-session decoders — both halves of the
// session trust boundary: the create body (solver selection, tolerances,
// start vectors) and the iterate body (step counts, spmv input vectors).
// The invariant mirrors FuzzHTTPSpMV: arbitrary bytes produce either a
// typed error or a request satisfying every documented constraint; never
// a panic — and the same scanner-vs-encoding/json differential.
func FuzzHTTPSolve(f *testing.F) {
	f.Add([]byte(`{"matrix":"abc","solver":"cg","b":[1,2,3]}`))
	f.Add([]byte(`{"matrix":"abc","solver":"gmres","b":[1],"restart":5,"tol":1e-9}`))
	f.Add([]byte(`{"matrix":"abc","solver":"pagerank","damping":0.9,"mode":"run"}`))
	f.Add([]byte(`{"matrix":"abc","solver":"power","x0":[1,0],"maxIterations":50}`))
	f.Add([]byte(`{"matrix":"abc","solver":"spmv"}`))
	f.Add([]byte(`{"matrix":"abc","solver":"spmv","mode":"run"}`))
	f.Add([]byte(`{"matrix":"","solver":"cg","b":[1]}`))
	f.Add([]byte(`{"matrix":"x","solver":"cg","b":[1],"tol":-1}`))
	f.Add([]byte(`{"matrix":"x","solver":"jacobi","b":[1],"damping":0.5}`))
	f.Add([]byte(`{"matrix":"x","solver":"nosuch","b":[1]}`))
	f.Add([]byte(`{"steps":3}`))
	f.Add([]byte(`{"steps":-1}`))
	f.Add([]byte(`{"steps":100000}`))
	f.Add([]byte(`{"vector":[1,2],"timeoutMs":50}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	// Appended for the scanner-vs-encoding/json differential (see
	// FuzzHTTPSpMV).
	f.Add([]byte(`{"matrix":"abc","solver":"cg","b":[-0.517,0.25,-0.10000000000000001],"x0":[1E+2,0.5e-3,-0],"tol":1e-10,"maxIterations":200}`))
	f.Add([]byte(`{"matrix":"abc","solver":"cg","b":[1],"tol":1e999}`))
	f.Add([]byte(`{"matrix":"abc","solver":"cg","b":[1],"tol":01}`))
	f.Add([]byte(`{"matrix":"abc","solver":"cg","b":[+1]}`))
	f.Add([]byte(`{"matrix":"abc","solver":"pagerank","damping":.5}`))
	f.Add([]byte(`{"matrix":"abc","solver":"pagerank","damping":1.}`))
	f.Add([]byte(`{"matrix":"abc","solver":"cg","b":[null]}`))
	f.Add([]byte(`{"matrix":"abc","Solver":"cg","b":[1]}`))
	f.Add([]byte(`{"matrix":"abc","solver":"cg","b":[1],"b":[2]}`))
	f.Add([]byte(`{"matrix":"abc","s\u006flver":"cg","b":[1]}`))
	f.Add([]byte("{\"matrix\":\"abc\",\"solver\":\"cg\",\"b\":[1],\"traceId\":\"r\xc3\xa9q\"}"))
	f.Add([]byte(" { \"matrix\" : \"abc\" ,\n\t\"solver\" : \"gmres\" , \"b\" : [ 1 , 2 ] , \"restart\" : 5 }\r\n"))
	f.Add([]byte(`{"matrix":"abc","solver":"cg","b":[1]}{}`))
	f.Add([]byte("\xef\xbb\xbf" + `{"steps":2}`))
	f.Add([]byte(`{"steps":2,"timeoutMs":1.0}`))
	f.Add([]byte(`{"steps":2,"timeoutMs":99999999999999999999}`))
	f.Add([]byte(`{"steps":5,"Steps":7}`))
	f.Add([]byte(`{"steps":null}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(` `))

	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstStdlib(t, data, SolveRequest{}, (*SolveRequest).fields, (*SolveRequest).normalize, decodeSolveRequest)
		if len(data) > 0 { // an empty iterate body is never parsed: it means {}
			checkAgainstStdlib(t, data, IterateRequest{Steps: 1}, (*IterateRequest).fields, (*IterateRequest).normalize, decodeIterateRequest)
		}

		if req, _, err := decodeSolveRequest(data); err == nil {
			if req.Matrix == "" {
				t.Fatal("accepted solve without matrix id")
			}
			switch req.Solver {
			case solverCG, solverJacobi, solverGMRES, solverPageRank, solverPower, solverSpMV:
			default:
				t.Fatalf("accepted unknown solver %q", req.Solver)
			}
			if req.Mode != "session" && req.Mode != "run" {
				t.Fatalf("normalized mode is %q", req.Mode)
			}
			if req.Mode == "run" && req.Solver == solverSpMV {
				t.Fatal("accepted run mode for spmv")
			}
			if !(req.Tol > 0) || math.IsInf(req.Tol, 0) {
				t.Fatalf("normalized tol %g not positive finite", req.Tol)
			}
			if req.MaxIterations < 1 || req.MaxIterations > maxMaxIterations {
				t.Fatalf("normalized maxIterations %d out of bounds", req.MaxIterations)
			}
			if req.Restart < 0 || req.Restart > maxGMRESRestart {
				t.Fatalf("restart %d out of bounds", req.Restart)
			}
			if !(req.Damping > 0 && req.Damping <= 1) {
				t.Fatalf("normalized damping %g outside (0,1]", req.Damping)
			}
			if req.TimeoutMs < 0 {
				t.Fatal("accepted negative timeout")
			}
			if linearSolver(req.Solver) != (len(req.B) > 0) {
				t.Fatalf("solver %q with b length %d", req.Solver, len(req.B))
			}
			for _, x := range append(append([]float64(nil), req.B...), req.X0...) {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatal("accepted non-finite value")
				}
			}
		} else if err != nil {
			_ = err.Error() // typed, formattable, never a panic
		}

		if req, _, err := decodeIterateRequest(data); err == nil {
			if req.Steps < 1 || req.Steps > maxStepsPerRequest {
				t.Fatalf("normalized steps %d out of bounds", req.Steps)
			}
			if req.TimeoutMs < 0 {
				t.Fatal("accepted negative timeout")
			}
			for _, x := range req.Vector {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatal("accepted non-finite vector value")
				}
			}
		}
	})
}
