package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"spmvtune/internal/errdefs"
	"spmvtune/internal/matgen"
)

// sameValue reports whether two decoded values are the same decode: floats
// by bit pattern (so -0 and 0 differ), slices by length and elements — nil
// and empty are one value, the distinction no validation rule reads.
func sameValue(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	return a.Interface() == b.Interface()
}

// checkAgainstStdlib is the differential oracle of the request fuzzers, with
// encoding/json as the specification. (a) Whenever the scanner accepts a
// body, json.Unmarshal into a fresh struct accepts it too and every field is
// equal. (b) The decoder's verdict, value and error text are those of the
// reference decoder: json.Unmarshal alone, then the same validation.
func checkAgainstStdlib[T any](t *testing.T, data []byte, preset T, fields func(*T) []field,
	validate func(*T) error, decode func([]byte) (*T, bool, error)) {
	t.Helper()
	scanned, ref := preset, preset
	refErr := json.Unmarshal(data, &ref)
	if scanBody(data, fields(&scanned), 0) {
		if refErr != nil {
			t.Fatalf("scanner accepted %q, encoding/json rejects it: %v", data, refErr)
		}
		if !sameValue(reflect.ValueOf(scanned), reflect.ValueOf(ref)) {
			t.Fatalf("scanner decoded %q to %+v, encoding/json to %+v", data, scanned, ref)
		}
	}

	if refErr != nil {
		refErr = errdefs.Invalidf("server: bad request body: %v", refErr)
	} else {
		refErr = validate(&ref)
	}
	got, _, err := decode(data)
	switch {
	case (err == nil) != (refErr == nil), err != nil && err.Error() != refErr.Error():
		t.Fatalf("decoding %q: error %v, stdlib-only decode: %v", data, err, refErr)
	case err == nil && !sameValue(reflect.ValueOf(*got), reflect.ValueOf(ref)):
		t.Fatalf("decoded %q to %+v, stdlib-only decode: %+v", data, *got, ref)
	}
}

// TestDecodeLeavesScannerMidway: a body the scanner gives up on after it has
// already parsed some fields decodes to exactly what json.Unmarshal alone
// yields — nothing half-decoded leaks, presets survive — and is counted as
// a fallback; a canonical body is not.
func TestDecodeLeavesScannerMidway(t *testing.T) {
	req, stdlib, err := decodeSpMVRequest([]byte(`{"matrix":"x","vector":[1,2],"vectors":null}`), 8)
	if err != nil || !stdlib {
		t.Fatalf("null vectors: stdlib=%v err=%v", stdlib, err)
	}
	if req.Matrix != "x" || !reflect.DeepEqual(req.Vector, []float64{1, 2}) || req.Vectors != nil {
		t.Errorf("null vectors decoded to %+v", req)
	}
	it, stdlib, err := decodeIterateRequest([]byte(`{"steps":5,"Steps":7}`))
	if err != nil || !stdlib || it.Steps != 7 {
		t.Errorf("case-folded duplicate: %+v stdlib=%v err=%v, want encoding/json's last-wins 7", it, stdlib, err)
	}
	// The scanner parsed timeoutMs before it met the unknown key; the preset
	// Steps: 1 must still be what json.Unmarshal starts from.
	it, stdlib, err = decodeIterateRequest([]byte(`{"timeoutMs":9,"unknown":1}`))
	if err != nil || !stdlib || it.Steps != 1 || it.TimeoutMs != 9 {
		t.Errorf("unknown key: %+v stdlib=%v err=%v", it, stdlib, err)
	}
	it, stdlib, err = decodeIterateRequest([]byte(` { "steps" : 3 , "vector" : [ 1e-3 , -0 ] } `))
	if err != nil || stdlib || it.Steps != 3 || len(it.Vector) != 2 || !math.Signbit(it.Vector[1]) {
		t.Errorf("canonical body: %+v stdlib=%v err=%v, want the scanner path", it, stdlib, err)
	}
	if _, stdlib, _ := decodeIterateRequest(nil); stdlib {
		t.Error("empty iterate body counted as a fallback: it is never parsed")
	}
}

// TestValidateRejectsNonFinite calls validate on NaN, +Inf and -Inf at the
// first, a middle and the last position of a vector, alone and as the
// second vector of a batch: each is refused with the index of the first
// offender, and a finite vector passes.
func TestValidateRejectsNonFinite(t *testing.T) {
	const n = 9
	finite := func() []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i) - 4.5
		}
		return v
	}
	if err := (&SpMVRequest{Matrix: "m", Vector: finite()}).validate(8); err != nil {
		t.Fatalf("finite vector: %v", err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, at := range []int{0, n / 2, n - 1} {
			v := finite()
			v[at] = bad
			if at > 0 {
				v[n-1] = bad // a later offender must not be the one reported
			}
			for i, req := range []SpMVRequest{
				{Matrix: "m", Vector: v},
				{Matrix: "m", Vectors: [][]float64{finite(), v}},
			} {
				want := errdefs.Invalidf("server: vector %d has non-finite value at %d", i, at).Error()
				if err := req.validate(8); err == nil || err.Error() != want {
					t.Errorf("%v at %d: validate = %v, want %q", bad, at, err, want)
				}
			}
		}
	}
}

// benchBody renders an SpMV body the way the benchmark's load generator
// does: values drawn as its randVec draws them, k/1000 for a seeded uniform
// k in [-1000, 1000), so signs come at random and a branch on one
// mispredicts as it does in the daemon; every seventh value moved to 17
// significant digits; each written by strconv.AppendFloat(x, 'f', -1, 64).
// positive takes the values' magnitudes, the one-sign body a change to the
// sign's handling must not lose on.
func benchBody(n int, positive bool) ([]byte, []float64) {
	rng := rand.New(rand.NewSource(1))
	v := make([]float64, n)
	body := []byte(`{"matrix":"0123456789abcdef","vector":[`)
	for i := range v {
		v[i] = float64(rng.Intn(2000)-1000) / 1000
		if i%7 == 0 {
			v[i] += 1e-17 * float64(i+1)
			v[i] = math.Nextafter(v[i], 2)
		}
		if positive {
			v[i] = math.Abs(v[i])
		}
		if i > 0 {
			body = append(body, ',')
		}
		body = strconv.AppendFloat(body, v[i], 'f', -1, 64)
	}
	return append(body, "]}"...), v
}

// allocated runs f several times and returns the smallest heap growth one
// run caused — the minimum discards whatever a background goroutine of an
// earlier test allocated meanwhile.
func allocated(f func()) (size, mallocs uint64) {
	size, mallocs = math.MaxUint64, math.MaxUint64
	var before, after runtime.MemStats
	for try := 0; try < 5; try++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		size = min(size, after.TotalAlloc-before.TotalAlloc)
		mallocs = min(mallocs, after.Mallocs-before.Mallocs)
	}
	return size, mallocs
}

// TestDecodeAllocs is the deterministic gate on the scanner path's memory
// (scripts/check.sh): an n-number vector decodes in at most 4 allocations
// and 1.25 x 8n bytes — counts, so a loaded runner cannot flake it.
func TestDecodeAllocs(t *testing.T) {
	const n = 20000
	body, want := benchBody(n, false)
	var req *SpMVRequest
	size, mallocs := allocated(func() {
		var stdlib bool
		var err error
		if req, stdlib, err = decodeSpMVRequest(body, 8); err != nil || stdlib {
			t.Fatalf("benchmark-shaped body: stdlib=%v err=%v", stdlib, err)
		}
	})
	if !sameValue(reflect.ValueOf(req.Vector), reflect.ValueOf(want)) {
		t.Fatal("decoded vector differs from the encoded one")
	}
	if mallocs > 4 || size > 8*n*5/4 {
		t.Errorf("decoding %d numbers: %d allocations, %d bytes; want <= 4 and <= %d", n, mallocs, size, 8*n*5/4)
	}
}

// TestDecodeAllocsAheadOfValidation: a vector is sized only from bytes
// already syntax-checked, so a megabyte of commas is rejected having
// allocated next to nothing — the guarantee encoding/json's checkValid
// pre-scan gives, kept.
func TestDecodeAllocsAheadOfValidation(t *testing.T) {
	for _, head := range []string{`{"matrix":"x","vector":[`, `{"matrix":"x","vectors":[[1],[`} {
		body := append([]byte(head), bytes.Repeat([]byte{','}, 1<<20)...)
		body = append(body, "]}"...)
		size, _ := allocated(func() {
			if _, _, err := decodeSpMVRequest(body, 8); err == nil {
				t.Fatal("a vector of commas decoded")
			}
		})
		if size >= 64<<10 {
			t.Errorf("%s,,,…: rejected after allocating %d bytes, want < 64 KiB", head, size)
		}
	}
}

// BenchmarkDecodeSpMV decodes the spmv_codec workload's body — 200 000
// numbers, 1.28 MB — through encoding/json alone and through the decoder,
// and spmv_fused's ("vectors").
func BenchmarkDecodeSpMV(b *testing.B) {
	body, _ := benchBody(200000, false)
	positive, _ := benchBody(200000, true)
	b.Run("stdlib", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := json.Unmarshal(body, new(SpMVRequest)); err != nil {
				b.Fatal(err)
			}
		}
	})
	// "scanner-positive" is the same values without their signs.
	// "scanner-f3" is every element with at most three decimals, the bytes
	// spmvload sends: all take atof.Short. "scanner-full" is every element
	// with 17 significant digits: none does, and all take Convert's
	// Eisel–Lemire branch. "vectors" is spmv_fused's body, 8 x 4000
	// elements of "scanner-f3"'s kind.
	rng := rand.New(rand.NewSource(1))
	f3 := func(dst []byte, i int) []byte {
		return strconv.AppendFloat(dst, float64(rng.Intn(2000)-1000)/1000, 'f', -1, 64)
	}
	array := func(dst []byte, n int, elem func(dst []byte, i int) []byte) []byte {
		dst = append(dst, '[')
		for i := 0; i < n; i++ {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = elem(dst, i)
		}
		return append(dst, ']')
	}
	vector := func(elem func(dst []byte, i int) []byte) []byte {
		body := array([]byte(`{"matrix":"0123456789abcdef","vector":`), 200000, elem)
		return append(body, '}')
	}
	fused := func() []byte {
		body := array([]byte(`{"matrix":"0123456789abcdef","vectors":`), 8, func(dst []byte, i int) []byte {
			return array(dst, 4000, f3)
		})
		return append(body, '}')
	}
	for _, bc := range []struct {
		name string
		body []byte
	}{
		{"scanner", body},
		{"scanner-positive", positive},
		{"scanner-f3", vector(f3)},
		{"scanner-full", vector(func(dst []byte, i int) []byte {
			return strconv.AppendFloat(dst, (rng.Float64()*2-1)*0.9995, 'e', 16, 64)
		})},
		{"vectors", fused()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(bc.body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, stdlib, err := decodeSpMVRequest(bc.body, 8); err != nil || stdlib {
					b.Fatalf("stdlib=%v err=%v", stdlib, err)
				}
			}
		})
	}
}

// TestDecodeScratchBounded: a vector of 2^20 elements, four times
// maxScratch, decodes to the encoded bits, and its scratch is not given back
// to the pool — one huge body cannot pin memory.
func TestDecodeScratchBounded(t *testing.T) {
	body, want := benchBody(1<<20, false)
	req, stdlib, err := decodeSpMVRequest(body, 8)
	if err != nil || stdlib {
		t.Fatalf("stdlib=%v err=%v", stdlib, err)
	}
	if !sameValue(reflect.ValueOf(req.Vector), reflect.ValueOf(want)) {
		t.Fatal("decoded vector differs from the encoded one")
	}
	for {
		scratch, _ := scratchPool.Get().(*[]float64)
		if scratch == nil {
			break
		}
		if cap(*scratch) > maxScratch {
			t.Errorf("pooled scratch of capacity %d, want <= %d", cap(*scratch), maxScratch)
		}
	}
}

// TestPooledBodiesDoNotAlias is the end-to-end check on the bug a body pool
// invites: two clients stream distinct 50 000-element vectors at one server,
// with and without the coalescer (whose flush goroutine outlives the handler
// that enqueued a vector), and every response must be bitwise A times the
// vector that request sent. Matrix and vector entries are small dyadic
// rationals, so every summation order yields the same bits as a.MulVec.
func TestPooledBodiesDoNotAlias(t *testing.T) {
	const clients, requests = 2, 20
	a := matgen.Bipartite(48, 50000, 8, 3)
	for i := range a.Val {
		a.Val[i] = float64(1 + i%5)
	}
	for _, window := range []time.Duration{0, 2 * time.Millisecond} {
		t.Run(fmt.Sprintf("window=%s", window), func(t *testing.T) {
			_, ts := newTestServer(t, func(c *Config) { c.BatchWindow = window })
			id := uploadMatrix(t, ts, a)
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					v, want := make([]float64, a.Cols), make([]float64, a.Rows)
					for k := 0; k < requests; k++ {
						for j := range v {
							v[j] = float64((j*7+k*131+c*977)%4096-2048) / 256
						}
						a.MulVec(v, want)
						vec, _ := json.Marshal(v)
						resp, err := http.Post(ts.URL+"/v1/spmv", "application/json",
							strings.NewReader(fmt.Sprintf(`{"matrix":%q,"vector":%s}`, id, vec)))
						if err != nil {
							t.Error(err)
							return
						}
						blob, _ := io.ReadAll(resp.Body)
						resp.Body.Close()
						var out spmvResponse
						if err := json.Unmarshal(blob, &out); err != nil || resp.StatusCode != http.StatusOK {
							t.Errorf("client %d request %d: status %d: %.200s", c, k, resp.StatusCode, blob)
							return
						}
						if !sameValue(reflect.ValueOf(out.Result), reflect.ValueOf(want)) {
							t.Errorf("client %d request %d: result is not A times the vector sent", c, k)
							return
						}
					}
				}(c)
			}
			wg.Wait()
			if got := scrapeMetric(t, ts, "spmvd_decode_fallback_total"); got != 0 {
				t.Errorf("%d json.Marshal bodies took the stdlib path, want 0", got)
			}
			if got := scrapeMetric(t, ts, `spmvd_decode_seconds_count{endpoint="spmv"}`); got != clients*requests {
				t.Errorf("decode count %d, want %d", got, clients*requests)
			}
		})
	}
}
