package server

import (
	"math"

	"spmvtune/internal/errdefs"
)

// SpMVRequest is the body of POST /v1/spmv: one vector or a batch against
// a previously uploaded matrix, with an optional per-request deadline.
type SpMVRequest struct {
	// Matrix is the ID returned by POST /v1/matrices.
	Matrix string `json:"matrix"`
	// Vector is a single right-hand side (length = matrix Cols).
	Vector []float64 `json:"vector,omitempty"`
	// Vectors is a batch of right-hand sides; mutually exclusive with
	// Vector.
	Vectors [][]float64 `json:"vectors,omitempty"`
	// TimeoutMs caps this request's execution time; 0 uses the server
	// default. The server clamps it to its configured maximum.
	TimeoutMs int `json:"timeoutMs,omitempty"`
	// TraceID tags this request's pipeline spans in the server's trace
	// stream. Empty selects a server-generated ID when tracing is enabled.
	TraceID string `json:"traceId,omitempty"`
}

// Batch normalizes the request into a list of vectors.
func (r *SpMVRequest) Batch() [][]float64 {
	if len(r.Vectors) > 0 {
		return r.Vectors
	}
	return [][]float64{r.Vector}
}

// fields is the scanner's table for this request: tag → destination.
func (r *SpMVRequest) fields() []field {
	return []field{
		{"matrix", &r.Matrix},
		{"vector", &r.Vector},
		{"vectors", &r.Vectors},
		{"timeoutMs", &r.TimeoutMs},
		{"traceId", &r.TraceID},
	}
}

// decodeSpMVRequest parses and validates an SpMV request body, reporting
// whether encoding/json rather than the scanner parsed it. The body is
// untrusted network input: every rejection is a typed invalid-input error
// (HTTP 400), never a panic — this function is the server's fuzz surface.
// Dimension checks against the target matrix happen later, in the handler,
// once the matrix is resolved.
func decodeSpMVRequest(data []byte, maxBatch int) (*SpMVRequest, bool, error) {
	var req SpMVRequest
	stdlib, err := unmarshalBody(data, &req, (*SpMVRequest).fields)
	if err == nil {
		err = req.validate(maxBatch)
	}
	if err != nil {
		return nil, stdlib, err
	}
	return &req, stdlib, nil
}

// validate checks a decoded request against every documented constraint.
func (r *SpMVRequest) validate(maxBatch int) error {
	if r.Matrix == "" {
		return errdefs.Invalidf("server: missing matrix id")
	}
	if r.TimeoutMs < 0 {
		return errdefs.Invalidf("server: negative timeoutMs %d", r.TimeoutMs)
	}
	if len(r.TraceID) > 128 {
		return errdefs.Invalidf("server: traceId longer than 128 bytes")
	}
	if len(r.Vector) > 0 && len(r.Vectors) > 0 {
		return errdefs.Invalidf("server: vector and vectors are mutually exclusive")
	}
	if len(r.Vector) == 0 && len(r.Vectors) == 0 {
		return errdefs.Invalidf("server: no input vector")
	}
	if maxBatch > 0 && len(r.Vectors) > maxBatch {
		return errdefs.Invalidf("server: batch of %d exceeds limit %d", len(r.Vectors), maxBatch)
	}
	for i, vec := range r.Batch() {
		if len(vec) == 0 {
			return errdefs.Invalidf("server: vector %d is empty", i)
		}
		for j, x := range vec {
			// JSON cannot encode NaN/Inf, but the decoder is the trust
			// boundary; keep the invariant explicit.
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return errdefs.Invalidf("server: vector %d has non-finite value at %d", i, j)
			}
		}
	}
	return nil
}
