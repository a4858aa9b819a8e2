package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"spmvtune/internal/matgen"
	"spmvtune/internal/solvers"
	"spmvtune/internal/sparse"
)

// Get and Put are sync.Pool's method shapes over largest and put, for the
// tests written when the classes were sync.Pools: Get takes a kept buffer
// as a *[]E, nil when none is kept.
func (r *recycler[E]) Get() any {
	b := r.largest()
	if b == nil {
		return nil
	}
	return &b
}

func (r *recycler[E]) Put(b []E) { r.put(b) }

// TestRecyclerSurvivesGC: a buffer put back is the one get returns after two
// collections — a sync.Pool has dropped it by then.
func TestRecyclerSurvivesGC(t *testing.T) {
	var r recycler[float64]
	r.maxCap = 1 << 10
	b := make([]float64, 100, 1000)
	r.put(b)
	runtime.GC()
	runtime.GC()
	got := r.get(500)
	if len(got) != 500 || &got[:1][0] != &b[:1][0] {
		t.Fatalf("get after two collections: len %d, a new buffer; want the one put back", len(got))
	}
	if r.held() != 0 {
		t.Errorf("held %d bytes after the only buffer was taken, want 0", r.held())
	}
}

// TestRecyclerByteBound: a storm of cap-sized buffers, put back from several
// goroutines at once, leaves at most classBytes held, the newest buffer
// among them.
func TestRecyclerByteBound(t *testing.T) {
	var r recycler[byte]
	r.maxCap = maxBody
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				r.put(make([]byte, 0, maxBody))
				if held := r.held(); held > classBytes {
					t.Errorf("held %d bytes, bound %d", held, classBytes)
				}
			}
		}()
	}
	wg.Wait()
	last := make([]byte, 0, maxBody)
	r.put(last)
	if held := r.held(); held != classBytes {
		t.Errorf("after the storm: held %d bytes, want the bound %d", held, classBytes)
	}
	kept := false
	for b := r.largest(); b != nil; b = r.largest() {
		kept = kept || &b[:1][0] == &last[:1][0]
	}
	if !kept {
		t.Error("the newest buffer was evicted before older ones")
	}
}

// TestRecyclerDropsOversized: a buffer above its class cap is never kept,
// nor is an empty one; one at the cap is.
func TestRecyclerDropsOversized(t *testing.T) {
	var r recycler[float64]
	r.maxCap = maxScratch
	r.put(make([]float64, maxScratch+1))
	r.put(nil)
	if r.held() != 0 {
		t.Fatalf("held %d bytes after an oversized and an empty put, want 0", r.held())
	}
	r.put(make([]float64, 0, maxScratch))
	if r.held() != 8*maxScratch {
		t.Errorf("held %d bytes after a put at the cap, want %d", r.held(), 8*maxScratch)
	}
}

// kept reports how many buffers r holds and the smallest one's bytes.
func (r *recycler[E]) kept() (n, smallest int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	smallest = math.MaxInt
	for _, b := range r.free {
		smallest = min(smallest, capBytes(b))
	}
	return len(r.free), smallest
}

// TestRecyclerKeepsFewBuffers: a storm of small buffers leaves at most
// maxKept held, the newest among them, and none below minKeep bytes.
func TestRecyclerKeepsFewBuffers(t *testing.T) {
	var r recycler[float64]
	r.maxCap = maxScratch
	for i := 0; i < 4*maxKept; i++ {
		r.put(make([]float64, 1, minKeep/8-1))
	}
	if n, _ := r.kept(); n != 0 {
		t.Fatalf("kept %d buffers below minKeep, want 0", n)
	}
	var last []float64
	for i := 0; i < 4*maxKept; i++ {
		last = make([]float64, 0, minKeep/8)
		r.put(last)
	}
	if n, _ := r.kept(); n != maxKept {
		t.Errorf("kept %d buffers, want maxKept = %d", n, maxKept)
	}
	if held := r.held(); held != maxKept*minKeep {
		t.Errorf("held %d bytes, want %d", held, maxKept*minKeep)
	}
	kept := false
	for b := r.largest(); b != nil; b = r.largest() {
		kept = kept || &b[:1][0] == &last[:1][0]
	}
	if !kept {
		t.Error("the newest buffer was evicted before older ones")
	}
}

// TestLendingDecodeBounded holds the handler's lending decode to the
// copying decode's memory gates, and to the recycler's bounds after the
// release: a warm vector decodes into a kept buffer, a body of commas is
// rejected having allocated next to nothing, a vector past maxScratch is
// not kept, and an over-long batch of tiny vectors lends no more than the
// batch limit and leaves nothing new kept.
func TestLendingDecodeBounded(t *testing.T) {
	const n, maxBatch = 20000, 8
	decode := func(body []byte) (*SpMVRequest, error) {
		req, stdlib, err := decodeSpMV(body, maxBatch, true)
		if stdlib {
			t.Fatalf("%.40s…: decoded by encoding/json", body)
		}
		return req, err
	}
	checkKept := func(what string) {
		t.Helper()
		if k, smallest := scratchPool.kept(); k > maxKept || k > 0 && smallest < minKeep {
			t.Errorf("%s: scratchPool keeps %d buffers, the smallest %d bytes", what, k, smallest)
		}
	}

	body, want := benchBody(n, false)
	if req, err := decode(body); err != nil {
		t.Fatal(err)
	} else {
		req.release() // fill the recycler
	}
	var req *SpMVRequest
	size, mallocs := allocated(func() {
		var err error
		if req, err = decode(body); err != nil {
			t.Fatal(err)
		}
		req.release()
	})
	if mallocs > 4 || size > 8*n/16 {
		t.Errorf("a warm lending decode of %d numbers: %d allocations, %d bytes; want <= 4 and <= %d", n, mallocs, size, 8*n/16)
	}
	if req, err := decode(body); err != nil || !sameValue(reflect.ValueOf(req.Vector), reflect.ValueOf(want)) {
		t.Fatalf("lent vector differs from the encoded one (err %v)", err)
	} else {
		req.release()
	}
	checkKept("warm vector")

	for _, head := range []string{`{"matrix":"x","vector":[`, `{"matrix":"x","vectors":[[1],[`} {
		commas := append([]byte(head), bytes.Repeat([]byte{','}, 1<<20)...)
		commas = append(commas, "]}"...)
		size, _ := allocated(func() {
			if _, _, err := decodeSpMV(commas, maxBatch, true); err == nil {
				t.Fatal("a vector of commas decoded")
			}
		})
		if size >= 64<<10 {
			t.Errorf("lending %s,,,…: rejected after allocating %d bytes, want < 64 KiB", head, size)
		}
		checkKept(head + ",,,…")
	}

	huge, want := benchBody(1<<20, false)
	if req, err := decode(huge); err != nil || !sameValue(reflect.ValueOf(req.Vector), reflect.ValueOf(want)) {
		t.Fatalf("lent 2^20-element vector differs from the encoded one (err %v)", err)
	} else {
		req.release()
	}
	for b := scratchPool.largest(); b != nil; b = scratchPool.largest() {
		if cap(b) > maxScratch {
			t.Errorf("kept scratch of capacity %d, want <= %d", cap(b), maxScratch)
		}
	}

	tiny := []byte(`{"matrix":"x","vectors":[[1]`)
	tiny = append(tiny, bytes.Repeat([]byte(`,[1]`), 1<<18)...)
	tiny = append(tiny, "]}"...)
	before := scratchPool.held()
	_, mallocs = allocated(func() {
		if _, err := decode(tiny); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
			t.Fatalf("an over-long batch: err %v, want the batch limit's", err)
		}
	})
	if mallocs > 200 {
		t.Errorf("an over-long batch of 2^18 tiny vectors: %d allocations, want <= 200 (none per vector)", mallocs)
	}
	if held := scratchPool.held(); held > before {
		t.Errorf("an over-long batch of tiny vectors left scratchPool holding %d bytes, %d before", held, before)
	}
	checkKept("an over-long batch")
}

// TestWarmSpMVAllocsBelowAVector is the end-to-end gate on the recycled
// request path (scripts/check.sh): a warm /v1/spmv request of 200 000
// elements — spmv_codec's shape — served through ServeHTTP after a
// collection allocates less than one vector's worth, 8n bytes. Its body,
// vector, result and response are buffers the collection did not take.
func TestWarmSpMVAllocsBelowAVector(t *testing.T) {
	const n = 200000
	s, ts := newTestServer(t, nil)
	id := uploadMatrix(t, ts, matgen.Bipartite(2000, n, 8, 7))
	body, _ := benchBody(n, false)
	body = bytes.Replace(body, []byte("0123456789abcdef"), []byte(id), 1)
	serve := func() {
		w := &discardResponse{header: make(http.Header)}
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/spmv", bytes.NewReader(body)))
		if w.status != http.StatusOK {
			t.Fatalf("status %d", w.status)
		}
	}
	serve() // tune the plan, fill the recycler
	size, _ := allocated(func() {
		runtime.GC()
		serve()
	})
	t.Logf("warm %d-element request after a collection: %d bytes", n, size)
	if size >= 8*n {
		t.Errorf("a warm %d-element request allocates %d bytes, want < %d (one vector)", n, size, 8*n)
	}
}

// TestOverBatchBodiesLeaveRecyclerSmall: bodies over the batch limit, one
// of 2^18 one-element vectors and one of 300 vectors of 200 elements, are
// refused through ServeHTTP having lent scratchPool no more than the limit
// of vectors, and a warm 200 000-element request after them costs what it
// cost before.
func TestOverBatchBodiesLeaveRecyclerSmall(t *testing.T) {
	const n, rows = 200000, 2000
	s, ts := newTestServer(t, nil)
	id := uploadMatrix(t, ts, matgen.Bipartite(rows, n, 8, 7))
	body, _ := benchBody(n, false)
	body = bytes.Replace(body, []byte("0123456789abcdef"), []byte(id), 1)
	serve := func(body []byte, status int) {
		w := &discardResponse{header: make(http.Header)}
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/spmv", bytes.NewReader(body)))
		if w.status != status {
			t.Fatalf("status %d, want %d", w.status, status)
		}
	}
	warm := func() uint64 {
		size, _ := allocated(func() {
			runtime.GC()
			serve(body, http.StatusOK)
		})
		return size
	}
	serve(body, http.StatusOK)
	cost := warm()
	batch := func(vectors int, elem string) []byte {
		b := []byte(fmt.Sprintf(`{"matrix":%q,"vectors":[`, id))
		v := "[" + strings.Repeat(elem+",", 199) + elem + "]"
		for i := 0; i < vectors; i++ {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, v...)
		}
		return append(b, "]}"...)
	}
	tiny := []byte(fmt.Sprintf(`{"matrix":%q,"vectors":[[1]%s]}`, id, strings.Repeat(",[1]", 1<<18)))
	for _, bc := range []struct {
		name string
		body []byte
	}{{"2^18 x [1]", tiny}, {"300 x 200", batch(300, "0.5")}} {
		before := scratchPool.held()
		serve(bc.body, http.StatusBadRequest)
		k, smallest := scratchPool.kept()
		after := scratchPool.held()
		t.Logf("%s: scratchPool held %d -> %d bytes, %d buffers", bc.name, before, after, k)
		if k > maxKept || smallest < minKeep {
			t.Errorf("%s: scratchPool keeps %d buffers, the smallest %d bytes", bc.name, k, smallest)
		}
		// At most the limit's vectors come back, each of 200 elements at most
		// 2 KiB of capacity.
		if growth := after - before; growth > s.cfg.MaxBatch*2048 {
			t.Errorf("%s: scratchPool grew by %d bytes, want <= %d", bc.name, growth, s.cfg.MaxBatch*2048)
		}
		// Up to two row-sized buffers of slack: core's reference slab is a
		// sync.Pool's, which a collection may empty.
		if got := warm(); got > cost+2*8*rows || got >= 8*n {
			t.Errorf("%s: a warm request after it allocates %d bytes, %d before", bc.name, got, cost)
		}
	}
}

// TestWarmCoalescedAllocsBelowARow is TestWarmSpMVAllocsBelowAVector with
// the coalescer (scripts/check.sh): a warm B = 8 request on a square matrix,
// after a collection, allocates less than one row-sized buffer — its
// decoded vectors, the batch items' copies and results are all recycled.
func TestWarmCoalescedAllocsBelowARow(t *testing.T) {
	const n, nb = 8192, 8
	s, ts := newTestServer(t, func(c *Config) {
		c.BatchWindow = time.Minute // the size trigger flushes every request's batch
		c.MaxBatch = nb
	})
	id := uploadMatrix(t, ts, matgen.Bipartite(n, n, 4, 5))
	warmPlan(t, ts, id)
	vs := make([][]float64, nb)
	for b := range vs {
		vs[b] = make([]float64, n)
		for j := range vs[b] {
			vs[b][j] = float64((j*7+b*131)%4096-2048) / 256
		}
	}
	blob, _ := json.Marshal(SpMVRequest{Matrix: id, Vectors: vs})
	serve := func() {
		w := &discardResponse{header: make(http.Header)}
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/spmv", bytes.NewReader(blob)))
		if w.status != http.StatusOK {
			t.Fatalf("status %d", w.status)
		}
	}
	serve()
	size, _ := allocated(func() {
		runtime.GC()
		serve()
	})
	t.Logf("warm coalesced B=%d request after a collection: %d bytes", nb, size)
	if size >= 8*n {
		t.Errorf("a warm coalesced B=%d request allocates %d bytes, want < %d (one row-sized buffer)", nb, size, 8*n)
	}
}

// TestUndeclaredBodyIsRecycled: a body sent without a Content-Length is read
// into bodyPool's class and given back, so a warm one allocates less than
// its own size. (TestRequestValidationErrors keeps its 413 at the limit.)
func TestUndeclaredBodyIsRecycled(t *testing.T) {
	const n = 20000
	s, ts := newTestServer(t, nil)
	id := uploadMatrix(t, ts, matgen.Bipartite(100, n, 8, 7))
	body, _ := benchBody(n, false)
	body = bytes.Replace(body, []byte("0123456789abcdef"), []byte(id), 1)
	serve := func() {
		w := &discardResponse{header: make(http.Header)}
		req := httptest.NewRequest(http.MethodPost, "/v1/spmv", io.MultiReader(bytes.NewReader(body)))
		req.ContentLength = -1
		s.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("status %d", w.status)
		}
	}
	serve()
	size, _ := allocated(serve)
	t.Logf("warm undeclared %d-byte body: %d bytes", len(body), size)
	if size >= uint64(len(body)) {
		t.Errorf("a warm undeclared %d-byte body allocates %d bytes, want less than the body", len(body), size)
	}
}

// TestRecycledVectorsStayTheRequests is the safety check on lending decoded
// vectors: two clients send stateless requests while a CG session is
// opened and solved between them, with and without the coalescer. The
// session keeps b and x0, which must be exact copies, not buffers the
// stateless requests give back: its iteration count must equal an
// in-process CGStepper's. Every stateless result must be bitwise a.MulVec
// — the vectors and the recycled result buffers, poisoned with NaN first,
// are served stale, so a row the execution did not write shows. The
// stateless matrix has empty rows; entries and vectors are small dyadic
// rationals, so every summation order gives a.MulVec's bits.
func TestRecycledVectorsStayTheRequests(t *testing.T) {
	const n, clients, requests = 3000, 2, 12
	spd := spdBanded(t, n, 5)
	coo := &sparse.COO{Rows: n, Cols: n}
	for i := 0; i < n; i++ {
		if i%7 == 3 {
			continue // an empty row
		}
		for k := spd.RowPtr[i]; k < spd.RowPtr[i+1]; k++ {
			coo.Add(i, int(spd.ColIdx[k]), spd.Val[k])
		}
	}
	holey, err := coo.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	b, x0 := make([]float64, n), make([]float64, n)
	for i := range b {
		b[i] = float64(i%11) - 4.5
		x0[i] = float64(i%3) / 4
	}
	want := func() int {
		x := append([]float64(nil), x0...)
		st, err := solvers.NewCGStepper(func(_ context.Context, v, u []float64) error {
			spd.MulVec(v, u)
			return nil
		}, b, x, 1e-10)
		if err != nil {
			t.Fatal(err)
		}
		for !st.Status().Converged {
			if _, err := st.Step(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		return st.Status().Iterations
	}()

	for _, window := range []time.Duration{0, 2 * time.Millisecond} {
		t.Run(fmt.Sprintf("window=%s", window), func(t *testing.T) {
			_, ts := newTestServer(t, func(c *Config) { c.BatchWindow = window })
			spdID, holeyID := uploadMatrix(t, ts, spd), uploadMatrix(t, ts, holey)
			for i := 0; i < 8; i++ {
				poison := make([]float64, n)
				for j := range poison {
					poison[j] = math.NaN()
				}
				scratchPool.put(poison)
			}
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					v, u := make([]float64, n), make([]float64, n)
					for k := 0; k < requests; k++ {
						for j := range v {
							v[j] = float64((j*7+k*131+c*977)%4096-2048) / 256
						}
						holey.MulVec(v, u)
						resp, err := http.Post(ts.URL+"/v1/spmv", "application/json",
							strings.NewReader(fmt.Sprintf(`{"matrix":%q,"vector":%s}`, holeyID, floatsJSON(v))))
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
						if !sameValue(reflect.ValueOf(out.Result), reflect.ValueOf(u)) {
							t.Errorf("client %d request %d: result is not A times the vector sent", c, k)
							return
						}
					}
				}(c)
			}
			sid, _ := createSession(t, ts, fmt.Sprintf(`{"matrix":%q,"solver":"cg","b":%s,"x0":%s,"tol":1e-10,"maxIterations":1000}`,
				spdID, floatsJSON(b), floatsJSON(x0)))
			var st sessionStatus
			for !st.Done {
				code, next := iterate(t, ts, sid, `{"steps":3}`)
				if code != http.StatusOK {
					t.Fatalf("iterate: status %d", code)
				}
				st = next
			}
			wg.Wait()
			if !st.Converged || st.Iterations != want {
				t.Errorf("session: converged=%v after %d iterations; in-process CGStepper: %d", st.Converged, st.Iterations, want)
			}
		})
	}
}
