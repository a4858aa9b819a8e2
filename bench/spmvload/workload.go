package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"spmvtune/internal/matgen"
	"spmvtune/internal/mmio"
	"spmvtune/internal/plan"
	"spmvtune/internal/plancache"
	"spmvtune/internal/sparse"
)

// kind is how a workload's op talks to the daemon.
type kind int

const (
	kindSpMV  kind = iota // POST /v1/spmv against one resident matrix
	kindSolve             // POST /v1/solve/{id}/iterate on resident CG sessions
	kindCold              // POST /v1/matrices of a new structure + its first /v1/spmv
)

// workload is one traffic mix. The comment on each entry of the table
// below says which layer owns its latency; bench/README.md has the
// measured shares.
type workload struct {
	name string
	why  string // BENCHMARK.json's one line
	kind kind
	// daemonArgs are the flags this workload's daemon gets beyond the
	// shared -corpus 24 -no-retrain.
	daemonArgs []string
	// rate > 0 makes the loop open: ops fall due on a seeded schedule at
	// this many per second whatever the daemon does. rate == 0 is a closed
	// loop: each client sends its next op when the previous one completes.
	rate    float64
	clients int // connections, never more than nproc on the 2-vCPU box
	// vectors per launch request, and SpMV products the daemon does per op.
	vectors  int
	products int
	gen      func(seed int64) *sparse.CSR
}

// Five workloads, chosen so that each of the daemon's layers owns the
// latency of at least one and is bypassed by at least one other.
var workloads = []workload{
	{
		// Execution-bound: long regular rows, small bodies. core → kernels →
		// hsa do almost all of the work. The fixed rate is about a quarter
		// of capacity, so latency is honest under independent arrivals.
		name: "spmv_exec", kind: kindSpMV, rate: 25, clients: 2, vectors: 1, products: 1,
		why: "open loop 25 req/s, 1 vector on BlockFEM(2000,200,30) ~390k nnz: execution (core/kernels/hsa) owns the latency, codec ~5%",
		gen: func(s int64) *sparse.CSR { return matgen.BlockFEM(2000, 200, 30, s) },
	},
	{
		// The same endpoint with the shares inverted: 16k nnz but a
		// 200 000-element request vector, so JSON decode/encode dominates.
		// A core optimisation must show on spmv_exec and not here.
		name: "spmv_codec", kind: kindSpMV, clients: 2, vectors: 1, products: 1,
		why: "closed loop x2, 1 vector on Bipartite(2000,200000,8) 16k nnz, ~1.2 MB request: server JSON codec owns the latency, core ~3%",
		gen: func(s int64) *sparse.CSR { return matgen.Bipartite(2000, 200000, 8, s) },
	},
	{
		// The coalescer and the fused multi-vector executor instead of the
		// single-vector path. Eight vectors per request against -max-batch 8
		// makes every launch size-triggered at B = 8. Two row-length
		// populations (the paper's "short rows followed by medium rows") put
		// the matrix in two bins at every seed; a power-law matrix of the
		// same size moved its nnz by ±25 % and its bin count between seeds.
		name: "spmv_fused", kind: kindSpMV, clients: 2, vectors: 8, products: 8,
		daemonArgs: []string{"-batch-window", "5ms", "-max-batch", "8"},
		why:        "closed loop x2, 8 vectors/request on Mixed(4000 rows: 2000 of 4 nnz, 2000 of 28) with -batch-window 5ms -max-batch 8: coalescer + fused batch executor",
		gen:        func(s int64) *sparse.CSR { return matgen.Mixed(4000, 4000, 2000, []int{4, 28}, s) },
	},
	{
		// solvers + the session path + core with no codec at all: a 15-byte
		// request drives eight products on short regular rows.
		name: "solve_iterate", kind: kindSolve, clients: 2, vectors: 1, products: solveSteps,
		why: "closed loop, 2 resident CG sessions on a 120x120 Poisson grid, op = iterate {steps:8}: solvers + session path + core, no codec",
		gen: func(int64) *sparse.CSR { return poisson2D(poissonGrid) },
	},
	{
		// The write path: every op uploads a structure the plan cache does
		// not hold, so mmio parse, fingerprint, features, binning and
		// core.Plan are paid per op.
		name: "cold_upload", kind: kindCold, clients: 1, vectors: 1, products: 1,
		daemonArgs: []string{"-cache-capacity", strconv.Itoa(coldCacheCapacity)},
		why:        "closed loop x1, op = upload next of 64 PowerLaw(6000,6,2.1,800) structures + first spmv, -cache-capacity 16: mmio/fingerprint/plan, a cache miss per op",
		gen:        func(s int64) *sparse.CSR { return matgen.PowerLaw(6000, 6, 2.1, 800, s) },
	},
}

const (
	poissonGrid       = 120 // 14 400 rows, 71 520 nnz
	solveSteps        = 8
	solveTol          = 1e-8
	solveMaxIter      = 5000
	coldMatrices      = 64
	coldCacheCapacity = 16
	// requestPool is how many distinct pre-encoded requests the warm
	// workloads cycle through: enough that no two in-flight ops share a
	// body, few enough that the 200 000-element vectors stay in memory.
	requestPool = 8
	// verifyTol is the server's own output-verification tolerance.
	verifyTol = 1e-9
)

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// subSeed derives an independent generator seed from the run's -seed, so
// the matrix, the vectors and the arrival schedule never share a stream.
func subSeed(seed int64, stream int) int64 { return seed*1_000_003 + int64(stream) }

const (
	streamMatrix   = 1
	streamVectors  = 2
	streamOffPath  = 3
	streamSchedule = 100  // + pass index: warm-up, the window's slices, the traced slice
	streamCold     = 1000 // + matrix index
)

// poisson2D is the 5-point Laplacian on an n×n grid: SPD, 4 on the
// diagonal, −1 to each grid neighbour.
func poisson2D(n int) *sparse.CSR {
	a := &sparse.CSR{Rows: n * n, Cols: n * n, RowPtr: make([]int64, n*n+1)}
	add := func(c int, v float64) {
		a.ColIdx = append(a.ColIdx, int32(c))
		a.Val = append(a.Val, v)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			r := i*n + j
			if i > 0 {
				add(r-n, -1)
			}
			if j > 0 {
				add(r-1, -1)
			}
			add(r, 4)
			if j < n-1 {
				add(r+1, -1)
			}
			if i < n-1 {
				add(r+n, -1)
			}
			a.RowPtr[r+1] = int64(len(a.ColIdx))
		}
	}
	return a
}

// randVec draws n values from {-1.000, -0.999, …, 0.999}: three decimals
// print in at most six bytes and parse back to the identical float64, so
// the vector the daemon decodes is bit-for-bit the one the reference
// product used.
func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(rng.Intn(2000)-1000) / 1000
	}
	return v
}

func appendVecJSON(dst []byte, v []float64) []byte {
	dst = append(dst, '[')
	for i, x := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendFloat(dst, x, 'f', -1, 64)
	}
	return append(dst, ']')
}

// opInput is one op's input: what goes over the socket and what the result
// is checked against.
type opInput struct {
	a    *sparse.CSR
	vecs [][]float64
	refs [][]float64 // a.MulVec of each vector, computed in set-up
	// vecJSON is the vector part of the request; the full body needs the
	// matrix id the daemon assigns at upload.
	vecJSON []byte
	body    []byte
	mtx     []byte // kindCold: the Matrix Market upload body
}

func newOpInput(a *sparse.CSR, rng *rand.Rand, vectors int) opInput {
	in := opInput{a: a}
	for k := 0; k < vectors; k++ {
		v := randVec(rng, a.Cols)
		u := make([]float64, a.Rows)
		a.MulVec(v, u)
		in.vecs = append(in.vecs, v)
		in.refs = append(in.refs, u)
	}
	if vectors == 1 {
		in.vecJSON = appendVecJSON(nil, in.vecs[0])
		return in
	}
	in.vecJSON = append(in.vecJSON, '[')
	for k, v := range in.vecs {
		if k > 0 {
			in.vecJSON = append(in.vecJSON, ',')
		}
		in.vecJSON = appendVecJSON(in.vecJSON, v)
	}
	in.vecJSON = append(in.vecJSON, ']')
	return in
}

// bindMatrix assembles the request body once the matrix id is known.
func (in *opInput) bindMatrix(id string) {
	key := "vector"
	if len(in.vecs) > 1 {
		key = "vectors"
	}
	in.body = []byte(fmt.Sprintf(`{"matrix":%q,%q:%s}`, id, key, in.vecJSON))
}

func encodeMatrix(a *sparse.CSR) ([]byte, error) {
	var buf bytes.Buffer
	if err := mmio.Write(&buf, a); err != nil {
		return nil, fmt.Errorf("encode matrix: %w", err)
	}
	return buf.Bytes(), nil
}

// solveInput is one CG session's system and what the in-process solver
// says about it.
type solveInput struct {
	b        []float64
	bJSON    []byte
	wantIter int // iterations the in-process CGStepper needs on the same inputs
}

// inputs is everything a run generates from its seed before the daemon
// starts.
type inputs struct {
	w         workload
	a         *sparse.CSR // the resident matrix (kindCold: the first of the set)
	mtx       []byte      // its upload body
	pool      []opInput   // kindSpMV: the request pool; kindCold: one per matrix
	solves    []solveInput
	generateS float64 // matgen.generate_s: structure generation alone
}

func generate(w workload, seed int64) (*inputs, error) {
	in := &inputs{w: w}
	rng := rand.New(rand.NewSource(subSeed(seed, streamVectors)))
	var err error
	switch w.kind {
	case kindSpMV:
		t0 := time.Now()
		in.a = w.gen(subSeed(seed, streamMatrix))
		in.generateS = time.Since(t0).Seconds()
		for i := 0; i < requestPool; i++ {
			in.pool = append(in.pool, newOpInput(in.a, rng, w.vectors))
		}
	case kindSolve:
		t0 := time.Now()
		in.a = w.gen(0)
		in.generateS = time.Since(t0).Seconds()
		for c := 0; c < w.clients; c++ {
			s := solveInput{b: randVec(rng, in.a.Rows)}
			s.bJSON = appendVecJSON(nil, s.b)
			ref, err := solveCG(context.Background(), nil, "", in.a, s.b)
			if err != nil {
				return nil, err
			}
			s.wantIter = ref.iterations
			in.solves = append(in.solves, s)
		}
		// The layer re-enactment multiplies b like any other vector.
		in.pool = append(in.pool, newOpInput(in.a, rng, 1))
	case kindCold:
		if err := in.generateCold(seed, rng); err != nil {
			return nil, err
		}
		return in, nil
	}
	in.mtx, err = encodeMatrix(in.a)
	return in, err
}

// generateCold builds the set of distinct structures cold_upload cycles
// through, and proves — against the real plancache, in this process — that
// cycling them through a cache of the daemon's capacity misses every time.
// The cache is an LRU per shard, so a structure whose shard sees fewer
// other structures than the shard holds would stay resident and hit; such
// a structure is replaced by the next one in the seeded stream.
func (in *inputs) generateCold(seed int64, rng *rand.Rand) error {
	w := in.w
	var keys []string
	next := 0
	draw := func() *sparse.CSR {
		t0 := time.Now()
		a := w.gen(subSeed(seed, streamCold+next))
		in.generateS += time.Since(t0).Seconds()
		next++
		return a
	}
	mats := make([]*sparse.CSR, coldMatrices)
	for i := range mats {
		mats[i] = draw()
		keys = append(keys, plan.Fingerprint(mats[i]))
	}
	for {
		bad := residentInCycle(keys)
		if bad < 0 {
			break
		}
		if next > 4*coldMatrices {
			return fmt.Errorf("cold_upload: no always-missing set of %d structures in %d draws", coldMatrices, next)
		}
		mats[bad] = draw()
		keys[bad] = plan.Fingerprint(mats[bad])
	}
	for _, a := range mats {
		op := newOpInput(a, rng, w.vectors)
		var err error
		if op.mtx, err = encodeMatrix(a); err != nil {
			return err
		}
		in.pool = append(in.pool, op)
	}
	in.a, in.mtx = mats[0], in.pool[0].mtx
	return nil
}

// residentInCycle replays two cycles over keys against a plan cache of the
// daemon's capacity and returns the index of the first key that hits on the
// second cycle, or -1 when every access misses.
func residentInCycle(keys []string) int {
	c := plancache.New(plancache.Options{Capacity: coldCacheCapacity})
	compute := func(context.Context) (*plan.TuningPlan, error) { return &plan.TuningPlan{}, nil }
	for cycle := 0; cycle < 2; cycle++ {
		for i, k := range keys {
			_, hit, _ := c.GetOrCompute(context.Background(), k, compute) // compute never fails
			if hit {
				return i
			}
		}
	}
	return -1
}
