package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"spmvtune/internal/mmio"
)

// encodingJSON is what writeJSON sent before the response appenders: v
// through json.Encoder.Encode.
func encodingJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// checkSameBytes fails t unless encodeResponse gives v the bytes, or the
// error text, json.Encoder.Encode gives it.
func checkSameBytes(t *testing.T, name string, v any) {
	t.Helper()
	if _, ok := v.(jsonAppender); !ok {
		t.Fatalf("%s: %T has no appendJSON", name, v)
	}
	want, werr := encodingJSON(v)
	buf, err := encodeResponse(v)
	defer respPool.Put(buf)
	if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
		t.Fatalf("%s: error %v, encoding/json %v", name, err, werr)
	}
	if err == nil && !bytes.Equal(buf, want) {
		t.Fatalf("%s:\n got %q\nwant %q", name, buf, want)
	}
}

// TestResponseAppendersMatchEncodingJSON holds the two appenders to
// encoding/json, byte for byte and error text for error text: strings it
// escapes (HTML, U+2028, control bytes, invalid UTF-8), empty and nil
// vectors, a nil vector inside results, omitempty on every field that has
// it, the floats where its format switches, and NaN and ±Inf in each float
// field. Last, every field of each type is set by reflection to a value
// encoding/json writes even under omitempty, so a field added to either
// struct but not to its appender fails, as does a field of a type with no
// test value below until it is given one.
func TestResponseAppendersMatchEncodingJSON(t *testing.T) {
	strs := []string{"", "abc", "a<b>&c", "line\u2028sep", "bad\xffutf8", "q\"uo\\te", "tab\tnl\n", "\x7f", "é"}
	vecs := [][]float64{nil, {}, {0}, {math.Copysign(0, -1), 1e-7, 1e21, 1e-6, 123456789012345680000, -0.5, 2.5e-323}}
	rng := rand.New(rand.NewSource(7))
	random := make([]float64, 200)
	for i := range random {
		random[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(50)-25))
	}
	vecs = append(vecs, random)

	for i, s := range strs {
		checkSameBytes(t, fmt.Sprintf("spmv string %d", i), spmvResponse{Matrix: s, Plan: s, DegradedReason: s, TraceID: s})
		checkSameBytes(t, fmt.Sprintf("session string %d", i), sessionStatus{Session: s, Matrix: s, Solver: s, Plan: s, ModelVersion: s, DegradedReason: s, TraceID: s})
	}
	for i, v := range vecs {
		r := spmvResponse{Matrix: "m", Plan: "p", U: -3, CacheHit: true, Degraded: true, Fallbacks: 2, Result: v, ElapsedMs: v2(v)}
		checkSameBytes(t, fmt.Sprintf("spmv result %d", i), r)
		r.Result, r.Results = nil, [][]float64{v, nil, v}
		checkSameBytes(t, fmt.Sprintf("spmv results %d", i), r)
		st := sessionStatus{Session: "s", CacheHit: true, Retunes: -1, Iterations: 7, Residual: v2(v), Converged: true,
			Done: true, Fallbacks: 3, Lambda: v2(v), X: v, Result: v}
		checkSameBytes(t, fmt.Sprintf("session %d", i), st)
	}
	checkSameBytes(t, "spmv zero", spmvResponse{})
	checkSameBytes(t, "session zero", sessionStatus{})
	checkSameBytes(t, "session -0 lambda", sessionStatus{Lambda: math.Copysign(0, -1)})
	checkSameBytes(t, "spmv empty results", spmvResponse{Results: [][]float64{}})

	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		v := []float64{1, bad, math.NaN()}
		for name, r := range map[string]spmvResponse{
			"result":    {Result: v},
			"results":   {Results: [][]float64{{1}, v}},
			"elapsedMs": {ElapsedMs: bad},
		} {
			checkSameBytes(t, fmt.Sprintf("spmv %s %v", name, bad), r)
		}
		for name, st := range map[string]sessionStatus{
			"residual": {Residual: bad, X: v},
			"lambda":   {Lambda: bad},
			"x":        {X: v, Result: []float64{math.Inf(-1)}},
			"result":   {Result: v},
		} {
			checkSameBytes(t, fmt.Sprintf("session %s %v", name, bad), st)
		}
	}

	values := []any{"s<&>\u2028", true, 3, int64(-4), 0.25, []float64{1.5, -2e-9}, [][]float64{{3e21}, nil}}
	for _, v := range []any{&spmvResponse{}, &sessionStatus{}} {
		rv := reflect.ValueOf(v).Elem()
	fields:
		for i := 0; i < rv.NumField(); i++ {
			f := rv.Field(i)
			for _, x := range values {
				if xv := reflect.ValueOf(x); xv.Type() == f.Type() {
					f.Set(xv)
					continue fields
				}
			}
			t.Fatalf("%s.%s: no test value of type %s", rv.Type(), rv.Type().Field(i).Name, f.Type())
		}
		checkSameBytes(t, rv.Type().String()+" every field", rv.Interface())
	}
}

// v2 is the second entry of v, or 0: a float field's value per table row.
func v2(v []float64) float64 {
	if len(v) > 1 {
		return v[1]
	}
	return 0
}

// TestRunStreamMatchesEncodingJSON drives a mode-run solve end to end: every
// line of the stream, progress and final status, must be the bytes
// encoding/json writes for what the line decodes to.
func TestRunStreamMatchesEncodingJSON(t *testing.T) {
	_, ts := newTestServer(t, nil)
	id := uploadMatrix(t, ts, spdBanded(t, 64, 3))
	resp, blob := doJSON(t, http.MethodPost, ts.URL+"/v1/solve",
		fmt.Sprintf(`{"matrix":%q,"solver":"cg","b":%s,"mode":"run","traceId":"t<&>"}`, id, floatsJSON(onesVec(64))))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, blob)
	}
	lines := strings.SplitAfter(string(blob), "\n")
	lines = lines[:len(lines)-1]
	if len(lines) < 3 {
		t.Fatalf("stream of %d lines: %s", len(lines), blob)
	}
	for i, line := range lines {
		var v any = &struct {
			Iter         int     `json:"iter"`
			Residual     float64 `json:"residual"`
			ModelVersion string  `json:"modelVersion,omitempty"`
			Retunes      int64   `json:"retunes,omitempty"`
		}{}
		if i == len(lines)-1 {
			v = &sessionStatus{}
		}
		if err := json.Unmarshal([]byte(line), v); err != nil {
			t.Fatalf("line %d %q: %v", i, line, err)
		}
		want, _ := encodingJSON(v)
		if line != string(want) {
			t.Fatalf("line %d:\n got %q\nwant %q", i, line, want)
		}
	}
	if final := lines[len(lines)-1]; !strings.Contains(final, `"x":[`) || !strings.Contains(final, `\u003c`) {
		t.Errorf("final line %q: want the solution and the escaped trace ID", final)
	}
}

// TestResponsesCarryContentLength: a body writeJSON sends — an upload's,
// an spmv result's, a session's and an error's — declares its length, so
// net/http does not frame it as chunked, while a mode-run stream, flushed
// line by line, stays chunked. The spmv and session bodies are larger than
// net/http's 2 KiB buffer, past which it would otherwise chunk them.
func TestResponsesCarryContentLength(t *testing.T) {
	_, ts := newTestServer(t, nil)
	a := spdBanded(t, 512, 3)
	check := func(name string, resp *http.Response, blob []byte, status int) {
		t.Helper()
		if resp.StatusCode != status {
			t.Fatalf("%s: status %d, want %d: %.200s", name, resp.StatusCode, status, blob)
		}
		if resp.ContentLength != int64(len(blob)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %d, Transfer-Encoding %v, for a body of %d bytes",
				name, resp.ContentLength, resp.TransferEncoding, len(blob))
		}
	}
	var mtx bytes.Buffer
	if err := mmio.Write(&mtx, a); err != nil {
		t.Fatal(err)
	}
	resp, blob := doJSON(t, http.MethodPost, ts.URL+"/v1/matrices", mtx.String())
	check("upload", resp, blob, http.StatusCreated)
	var up struct{ ID string }
	if err := json.Unmarshal(blob, &up); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	v := make([]float64, a.Cols)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	resp, blob = doJSON(t, http.MethodPost, ts.URL+"/v1/spmv", fmt.Sprintf(`{"matrix":%q,"vector":%s}`, up.ID, floatsJSON(v)))
	check("spmv", resp, blob, http.StatusOK)
	solve := fmt.Sprintf(`{"matrix":%q,"solver":"cg","b":%s`, up.ID, floatsJSON(v))
	sid, _ := createSession(t, ts, solve+"}")
	if code, _ := iterate(t, ts, sid, `{"steps":2}`); code != http.StatusOK {
		t.Fatalf("iterate: status %d", code)
	}
	resp, blob = doJSON(t, http.MethodGet, ts.URL+"/v1/solve/"+sid, "")
	check("session", resp, blob, http.StatusOK)
	if len(blob) < 2<<10 {
		t.Errorf("session body of %d bytes fits net/http's buffer, which sizes it anyway", len(blob))
	}
	resp, blob = doJSON(t, http.MethodGet, ts.URL+"/v1/plans/0123456789abcdef", "")
	check("error", resp, blob, http.StatusNotFound)
	resp, blob = doJSON(t, http.MethodPost, ts.URL+"/v1/solve", solve+`,"mode":"run"}`)
	if resp.StatusCode != http.StatusOK || resp.ContentLength != -1 || len(resp.TransferEncoding) == 0 {
		t.Errorf("mode-run stream: status %d, Content-Length %d, Transfer-Encoding %v; want a chunked 200",
			resp.StatusCode, resp.ContentLength, resp.TransferEncoding)
	}
}

// fusedResponse is an spmvResponse shaped like the spmv_fused workload's:
// 8 result vectors of 4000 products each.
func fusedResponse() spmvResponse {
	rng := rand.New(rand.NewSource(1))
	r := spmvResponse{Matrix: "0123456789abcdef", Plan: "fedcba9876543210", U: 2000, CacheHit: true,
		TraceID: "0123456789abcdef0123456789abcdef", Results: make([][]float64, 8), ElapsedMs: 3.141592}
	for i := range r.Results {
		r.Results[i] = make([]float64, 4000)
		for j := range r.Results[i] {
			for k := 0; k < 8; k++ {
				r.Results[i][j] += rng.NormFloat64() * rng.NormFloat64()
			}
		}
	}
	return r
}

// TestEncodeAllocs: once the pool holds a buffer of its size, encoding an
// 8 × 4000 spmvResponse allocates nothing. It skips under -race, whose
// sync.Pool drops buffers at random; scripts/check.sh runs it without.
func TestEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random")
	}
	var v any = fusedResponse()
	allocs := testing.AllocsPerRun(20, func() {
		buf, err := encodeResponse(v)
		if err != nil {
			t.Fatal(err)
		}
		respPool.Put(buf)
	})
	if allocs != 0 {
		t.Errorf("warm encode of an 8 x 4000 response: %.1f allocations, want 0", allocs)
	}
}

// BenchmarkEncodeSpMVResponse encodes the spmv_fused workload's response
// through the appender and through encoding/json, in ns per float.
func BenchmarkEncodeSpMVResponse(b *testing.B) {
	var v any = fusedResponse()
	floats := 8 * 4000
	b.Run("appender", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf, err := encodeResponse(v)
			if err != nil {
				b.Fatal(err)
			}
			respPool.Put(buf)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*floats), "ns/float")
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := json.NewEncoder(&buf).Encode(v); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*floats), "ns/float")
	})
}
