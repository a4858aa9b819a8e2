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
// once the matrix is resolved. The vectors are the caller's.
func decodeSpMVRequest(data []byte, maxBatch int) (*SpMVRequest, bool, error) {
	return decodeSpMV(data, maxBatch, false)
}

// decodeSpMV is decodeSpMVRequest; with lend, the request's vectors are
// scratchPool's until its release, and it lends no more than maxBatch. A
// request it rejects has released them.
func decodeSpMV(data []byte, maxBatch int, lend bool) (*SpMVRequest, bool, error) {
	var req SpMVRequest
	limit := 0
	if lend {
		limit = math.MaxInt
		if maxBatch > 0 {
			limit = maxBatch
		}
	}
	stdlib, err := unmarshalBody(data, &req, (*SpMVRequest).fields, limit)
	if err == nil {
		err = req.validate(maxBatch)
	}
	if err != nil {
		if lend {
			req.release()
		}
		return nil, stdlib, err
	}
	return &req, stdlib, nil
}

// release gives a lending decode's vectors back to scratchPool, once
// nothing reads them.
func (r *SpMVRequest) release() {
	scratchPool.put(r.Vector)
	recycle(r.Vectors)
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
		// JSON cannot encode NaN/Inf, but the decoder is the trust boundary;
		// keep the invariant explicit.
		if j := firstNonFinite(vec); j >= 0 {
			return errdefs.Invalidf("server: vector %d has non-finite value at %d", i, j)
		}
	}
	return nil
}

// firstNonFinite returns the index of vec's first NaN or ±Inf, or -1. The
// scan ORs one bit per element, set when the exponent field is all ones,
// without a branch; only a vector that has one is searched for its index.
func firstNonFinite(vec []float64) int {
	var nonFinite uint64
	for _, x := range vec {
		nonFinite |= (math.Float64bits(x)>>52&0x7FF + 1) >> 11
	}
	if nonFinite == 0 {
		return -1
	}
	for j, x := range vec {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return j
		}
	}
	return -1
}
