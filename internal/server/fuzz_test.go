package server

import (
	"math"
	"testing"
)

// FuzzHTTPSpMV fuzzes the SpMV request decoder — the server's JSON trust
// boundary. The invariant: arbitrary bytes either produce a typed error or
// a request that satisfies every documented constraint; never a panic. And
// differentially (checkAgainstStdlib): whatever the scanner accepts,
// encoding/json decodes to the same bits, and the decoder's verdict and
// value are those of a stdlib-only decode.
func FuzzHTTPSpMV(f *testing.F) {
	f.Add([]byte(`{"matrix":"abc","vector":[1,2,3]}`))
	f.Add([]byte(`{"matrix":"abc","vectors":[[1],[2]],"timeoutMs":50}`))
	f.Add([]byte(`{"matrix":"","vector":[]}`))
	f.Add([]byte(`{"matrix":"x","vector":[1e308,-1e308]}`))
	f.Add([]byte(`{"matrix":"x","vectors":[]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	f.Add([]byte(`{"matrix":"x","vector":[1],"timeoutMs":-1}`))
	f.Add([]byte(`{"matrix":"x","vector":[null]}`))
	// Appended for the scanner-vs-encoding/json differential: the benchmark's
	// body shape, the number grammar's edges on both sides of what strconv
	// alone accepts, and every way a body leaves the canonical subset.
	f.Add([]byte(`{"matrix":"0123456789abcdef","vector":[-0.517,0.25,-1,0,0.999,12345.678901234567,-0.10000000000000001]}`))
	f.Add([]byte(`{"matrix":"x","vector":[1E+2,0.5e-3,-0,1e-400,123456789012345678901234567890123456789]}`))
	f.Add([]byte(`{"matrix":"x","vector":[1e999]}`))
	f.Add([]byte(`{"matrix":"x","vector":[01]}`))
	f.Add([]byte(`{"matrix":"x","vector":[+1]}`))
	f.Add([]byte(`{"matrix":"x","vector":[.5]}`))
	f.Add([]byte(`{"matrix":"x","vector":[1.]}`))
	f.Add([]byte(`{"matrix":"x","vector":[0x1p-2,1_0,Inf,NaN]}`))
	f.Add([]byte(`{"matrix":"x","vectors":[null]}`))
	f.Add([]byte(`{"matrix":"x","vector":[1,2],"vectors":null}`))
	f.Add([]byte(`{"matrix":"x","Vector":[1]}`))
	f.Add([]byte(`{"matrix":"x","vector":[1],"vector":[2,3]}`))
	f.Add([]byte(`{"matrix":"x","\u0076ector":[1]}`))
	f.Add([]byte(`{"matrix":"x","vector":[1],"traceId":"r\u00e9q"}`))
	f.Add([]byte("{\"matrix\":\"x\",\"vector\":[1],\"traceId\":\"r\xc3\xa9q\"}"))
	f.Add([]byte(" {\t\"matrix\" :\n\"x\" ,\r\"vectors\" : [ [ 1 , 2 ] , [ 3 ] ] , \"timeoutMs\" : 7 } \n"))
	f.Add([]byte(`{"matrix":"x","vector":[1]} x`))
	f.Add([]byte("\xef\xbb\xbf" + `{"matrix":"x","vector":[1]}`))
	f.Add([]byte(`{"matrix":"x","vector":[1],"timeoutMs":1.0}`))
	f.Add([]byte(`{"matrix":"x","vector":[1],"timeoutMs":99999999999999999999}`))
	f.Add([]byte(`{"matrix":"x","vectors":[[],[1]]}`))
	f.Add([]byte(`{"matrix":"x","vector":[1],"extra":{"a":[true]}}`))
	f.Add([]byte(`{"matrix":"x","vector":[1],}`))

	const maxBatch = 8
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstStdlib(t, data, SpMVRequest{}, (*SpMVRequest).fields,
			func(r *SpMVRequest) error { return r.validate(maxBatch) },
			func(data []byte) (*SpMVRequest, bool, error) { return decodeSpMVRequest(data, maxBatch) })

		req, _, err := decodeSpMVRequest(data, maxBatch)
		if err != nil {
			if req != nil {
				t.Fatal("error with non-nil request")
			}
			return
		}
		if req.Matrix == "" {
			t.Fatal("accepted request without matrix id")
		}
		if req.TimeoutMs < 0 {
			t.Fatal("accepted negative timeout")
		}
		if len(req.Vector) > 0 && len(req.Vectors) > 0 {
			t.Fatal("accepted both vector forms")
		}
		batch := req.Batch()
		if len(batch) == 0 || len(batch) > maxBatch {
			t.Fatalf("batch size %d out of bounds", len(batch))
		}
		for _, vec := range batch {
			if len(vec) == 0 {
				t.Fatal("accepted empty vector")
			}
			for _, x := range vec {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatal("accepted non-finite value")
				}
			}
		}
	})
}
