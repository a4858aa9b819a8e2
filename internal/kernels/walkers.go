package kernels

import (
	"spmvtune/internal/binning"
	"spmvtune/internal/hsa"
	"spmvtune/internal/sparse"
)

// This file is how a launch charges the device: one walker per reduction
// family, each parameterized by the point's launch geometry and by the
// number of vectors the Input binds. SpMV is DRAM-bound and the matrix
// structure (values, column indices, row pointers) dominates the traffic,
// so a launch over B vectors streams it once and pays only the per-vector
// v gathers, multiply-accumulates, reductions and result stores B times:
//
//   - structure loads are charged once per launch — later vectors reuse the
//     register- or LDS-resident copy;
//   - per-vector work is charged once per vector;
//   - the functional result per (vector, row) is the k-ascending dot
//     product whatever the width, so a launch over B vectors is
//     byte-identical to B launches over one.
//
// Width 1 is not special-cased anywhere below: the per-vector loops run
// once. TestWalkerGoldenDigest pins every stat, counter and output bit of
// every point at widths 1, 3 and 8.

// family is the reduction family a point runs as on a given device.
type family uint8

const (
	famSerial    family = iota // TPR = 1: lock-step row walk, no combine
	famStaged                  // products staged in LDS, combined per round
	famWavefront               // private partials, one cross-lane combine per row
)

// geom is the device-clamped launch geometry of one point: arbitrary
// (possibly hostile, plan-decoded) params always normalize to a
// dispatchable shape, so Run is total.
type geom struct {
	fam       family
	x         int // work-items per row (1 for the serial walk)
	rowsPerWG int
	wgSize    int // work-items per group
	factor    int // LDS staging multiple (staged family only)
	chunk     int // elements one subvector consumes per round
}

func (k Kernel) geom(cfg hsa.Config) geom {
	p := k.P
	var g geom
	if p.TPR <= 1 {
		g.x = 1
		g.rowsPerWG = cfg.MaxWorkGroupSize
		g.wgSize = g.rowsPerWG
		return g
	}
	g.x = min(p.TPR, cfg.MaxWorkGroupSize)
	g.rowsPerWG = max(cfg.MaxWorkGroupSize/g.x, 1)
	g.wgSize = g.x * g.rowsPerWG
	// The wavefront combine needs the subvector's lanes in lock-step, i.e.
	// inside one wavefront. Wider points degrade to the tree reduction — a
	// pure function of (params, device), so plans decoded on a narrower
	// device stay total and deterministic.
	if p.Reduction == ReduceWavefront && g.x <= cfg.WavefrontSize {
		g.fam = famWavefront
		return g
	}
	g.fam = famStaged
	g.factor = p.ldsFactor()
	// The staged products must fit the work-group's LDS allocation.
	if fit := cfg.LDSBytesPerWG / (8 * g.wgSize); g.factor > fit && fit >= 1 {
		g.factor = fit
	}
	g.chunk = g.factor * g.x
	return g
}

// RowsPerWG returns how many rows the kernel packs into one work-group on
// the device.
func (k Kernel) RowsPerWG(cfg hsa.Config) int { return k.geom(cfg).rowsPerWG }

// PipeFloor returns a certified lower bound, in device cycles, on the
// busiest SIMD pipe of any single work-group of a launch over vectors
// right-hand sides (values below 1 count as 1) covering rows whose longest
// row has maxRowLen stored non-zeros. Soundness contract: the simulated
// makespan of the launch (excluding kernel-launch overhead) is always >=
// the returned value. The bound sums only what the walker charges
// unconditionally on the wavefront covering the longest row — the
// divergence floor the paper's kernel trade-off hinges on — which lets the
// tuning search skip simulating kernels that cannot possibly win a bin (see
// core's lower-bound pruning).
func (k Kernel) PipeFloor(cfg hsa.Config, maxRowLen, vectors int) float64 {
	if maxRowLen <= 0 {
		return 0
	}
	nb := float64(max(vectors, 1))
	g := k.geom(cfg)
	var perVector float64
	switch g.fam {
	case famSerial:
		// The wavefront holding the longest row iterates maxRowLen times in
		// lock-step. Each iteration gathers column indices and values once
		// for the launch (two transactions, at least cache hits), then per
		// vector gathers v and multiply-accumulates, plus one bookkeeping
		// ALU op.
		return float64(maxRowLen) * ((2+nb)*cfg.TxHitCycles + (nb+1)*cfg.ALUCycles)
	case famWavefront:
		// Per-lane multiply-accumulates over the longest row plus the single
		// cross-lane combine; no LDS, no barriers.
		steps := (maxRowLen + g.x - 1) / g.x
		perVector = float64(steps+log2ceil(g.x)) * cfg.ALUCycles
	case famStaged:
		// Every round charges its staging, barriers and reduction
		// instructions. Gathers are excluded (the segment roofline bounds
		// those separately), and they are the only part of a round that
		// amortizes over vectors.
		rounds := (maxRowLen + g.chunk - 1) / g.chunk
		redSteps := log2ceil(g.chunk)
		perRound := float64(g.factor)*cfg.LDSCycles +
			2*cfg.BarrierCycles +
			2*float64(redSteps)*cfg.LDSCycles +
			float64(redSteps+1)*cfg.ALUCycles
		perVector = float64(rounds) * perRound
	}
	return nb * perVector
}

// Run executes the kernel over the rows covered by groups for every vector
// pair bound to in: DotRows writes the product into in.Us and Account
// charges the launch to run. The two are independent — the product is the
// same whatever the point's geometry, the charges never read it — so a
// caller that needs only the cost (the tuning search) calls Account alone.
func (k Kernel) Run(run *hsa.Run, in *Input, groups []binning.Group) {
	DotRows(in.A, in.Vs, in.Us, groups)
	k.Account(run, in, groups)
}

// Account charges run with everything a launch of the kernel over the rows
// covered by groups does on the device, for every vector pair bound to in,
// and writes no output: the stats and counters are exactly Run's. It stops
// after the work-group that crosses the run's cutoff (hsa.Run.SetCutoff).
func (k Kernel) Account(run *hsa.Run, in *Input, groups []binning.Group) {
	g := k.geom(run.Config())
	wfSize := run.Config().WavefrontSize
	sc := acquireScratch()
	defer releaseScratch(sc)
	w := wavefront{in: in, x: g.x, size: wfSize, addrs: sc.addrBuf(wfSize), vAddrs: sc.vAddrBuf(wfSize), runs: sc.runBuf(wfSize)}
	rows := sc.rowBuf(g.rowsPerWG)
	it := rowIter{groups: groups}
	for {
		rows = it.take(rows[:0:cap(rows)])
		if len(rows) == 0 {
			return
		}
		w.rows = rows
		wg := run.BeginWG()
		// A serial work-group is sized to the rows it was handed, so a tail
		// group dispatches only the wavefronts that hold a row; the
		// cooperative families always dispatch their full geometry.
		lanes := g.wgSize
		if g.fam == famSerial {
			lanes = len(rows)
		}
		for lo := 0; lo < lanes; lo += wfSize {
			if !w.begin(wg.WF(), lo) {
				// This wavefront's row slots are beyond the tail: its lanes
				// exit after the bounds check.
				w.acc.ALU(2)
				continue
			}
			switch g.fam {
			case famSerial:
				w.walkSerial()
			case famWavefront:
				w.walkWavefront()
			case famStaged:
				w.walkStaged(g)
			}
		}
		wg.End()
		if run.Stopped() {
			return
		}
	}
}

// wavefront is the accountant-side view of one wavefront of a launch: the
// size work-items from gidLo of a work-group whose rows are assigned x
// consecutive work-items each, so it covers row slots [slotLo, slotHi] of
// rows. It carries the launch's gather scratch.
type wavefront struct {
	acc            *hsa.WFAcc
	in             *Input
	rows           []int32 // the work-group's rows, by slot
	x, size        int
	gidLo          int
	slotLo, slotHi int
	maxRowLen      int // longest covered row: the wavefront iterates until it is done
	addrs, vAddrs  []int64
	runs           []hsa.LaneRun
}

// begin positions w on the wavefront starting at work-item gidLo and
// charges the prologue every family shares: each covered row's bin entry
// and two row pointers, plus the rowStart/rowEnd setup. It reports false,
// charging nothing, when the wavefront covers no row.
func (w *wavefront) begin(acc *hsa.WFAcc, gidLo int) bool {
	w.acc, w.gidLo = acc, gidLo
	w.slotLo = gidLo / w.x
	if w.slotLo >= len(w.rows) {
		return false
	}
	w.slotHi = min((gidLo+w.size-1)/w.x, len(w.rows)-1)
	addrs := w.addrs[:0]
	w.maxRowLen = 0
	for _, r := range w.rows[w.slotLo : w.slotHi+1] {
		addrs = append(addrs, int64(r))
		w.maxRowLen = max(w.maxRowLen, w.in.A.RowLen(int(r)))
	}
	acc.Gather(w.in.RegBin, addrs)
	acc.Gather(w.in.RegRowPtr, addrs)
	for i := range addrs {
		addrs[i]++
	}
	acc.Gather(w.in.RegRowPtr, addrs)
	acc.ALU(2)
	return true
}

// loadSerial collects lock-step iteration t of the serial walk into
// w.addrs/w.vAddrs: each work-item owns one row slot and takes the row's
// element t, if the row is that long. The addresses come out in work-item
// order (the direct-mapped cache makes the hit/miss sequence
// order-sensitive); vAddrs holds the matching entries of vector 0's v slab.
// They stay lane lists: a serial lane's run is one element long, where
// Gather is cheaper than GatherRuns.
func (w *wavefront) loadSerial(t int) {
	a := w.in.A
	addrs, vAddrs := w.addrs[:0], w.vAddrs[:0]
	for _, r := range w.rows[w.slotLo : w.slotHi+1] {
		if e := a.RowPtr[r] + int64(t); e < a.RowPtr[r+1] {
			addrs = append(addrs, e)
			vAddrs = append(vAddrs, int64(a.ColIdx[e]))
		}
	}
	w.addrs, w.vAddrs = addrs, vAddrs
}

// load collects one lock-step load of a cooperative walk: lane l of every
// covered row takes the row's element off+l, if the row is that long. In
// work-item order, which slot by slot is each row's lanes inside the
// wavefront up to the row's end, those elements form one run per row:
// w.runs lists them for the structure gathers (hsa.WFAcc.GatherRuns charges
// a run list exactly as Gather charges its lanes), and w.vAddrs holds the
// matching entries of vector b's v slab, lane by lane. Reports whether any
// lane is active.
func (w *wavefront) load(off, b int) bool {
	a := w.in.A
	vBase := int64(b) * w.in.vStride
	runs, vAddrs := w.runs[:0], w.vAddrs[:0]
	for slot := w.slotLo; slot <= w.slotHi; slot++ {
		r := w.rows[slot]
		gid0 := slot * w.x
		first := a.RowPtr[r] + int64(off)
		end := min(first+int64(min(w.x, w.gidLo+w.size-gid0)), a.RowPtr[r+1])
		start := first + int64(max(w.gidLo-gid0, 0))
		if start >= end {
			continue
		}
		runs = append(runs, hsa.LaneRun{Start: start, Count: end - start})
		for _, c := range a.ColIdx[start:end] {
			vAddrs = append(vAddrs, int64(c)+vBase)
		}
	}
	w.runs, w.vAddrs = runs, vAddrs
	return len(vAddrs) > 0
}

// gatherVectors charges, for the lanes w.vAddrs holds for vector 0, every
// vector's v gather and multiply-accumulate.
func (w *wavefront) gatherVectors() {
	for b := range w.in.Vs {
		if b > 0 {
			for i := range w.vAddrs {
				w.vAddrs[i] += w.in.vStride
			}
		}
		w.acc.Gather(w.in.RegV, w.vAddrs)
		w.acc.ALU(1)
	}
}

// store charges the result stores: the first work-item of every covered row
// that lies in this wavefront writes the row's sum, once per vector into
// that vector's u slab.
func (w *wavefront) store() {
	for b := range w.in.Us {
		addrs := w.addrs[:0]
		for slot := w.slotLo; slot <= w.slotHi; slot++ {
			if gid0 := slot * w.x; gid0 >= w.gidLo {
				addrs = append(addrs, int64(w.rows[slot])+int64(b)*w.in.uStride)
			}
		}
		w.acc.Gather(w.in.RegU, addrs)
	}
}

// walkSerial is the lock-step serial walk (Algorithm 3): each work-item
// owns one row, so the wavefront's trip count is its longest row
// (divergence) and iteration t gathers element rowStart+t of every
// still-active row — poor coalescing on long rows, acceptable on uniformly
// short ones. The matrix element streams once; each vector pays its own v
// gather and multiply-accumulate.
func (w *wavefront) walkSerial() {
	for t := 0; t < w.maxRowLen; t++ {
		w.loadSerial(t)
		w.acc.Gather(w.in.RegColIdx, w.addrs)
		w.acc.Gather(w.in.RegVal, w.addrs)
		w.gatherVectors()
		w.acc.ALU(1) // loop bookkeeping
	}
	w.store()
}

// walkWavefront is the wavefront-synchronous subvector scheme: each lane
// walks its x-strided slice of the row accumulating into a private register
// per vector, then the x partials merge in log2(x) cross-lane permute steps.
// The lanes of one subvector live in one wavefront and execute in
// lock-step, so nothing ever stages through LDS and no barrier is issued —
// the entire per-round overhead of the staged scheme disappears.
func (w *wavefront) walkWavefront() {
	steps := (w.maxRowLen + w.x - 1) / w.x
	for t := 0; t < steps; t++ {
		if w.load(t*w.x, 0) {
			w.acc.GatherRuns(w.in.RegColIdx, w.runs)
			w.acc.GatherRuns(w.in.RegVal, w.runs)
			w.gatherVectors()
		}
	}
	// One cross-lane combine per vector, after which lane 0 holds the sum.
	w.acc.ALU(len(w.in.Vs) * log2ceil(w.x))
	w.store()
}

// walkStaged is the LDS-staged subvector scheme (Algorithm 4; Algorithm 5
// when x is the whole work-group). Per round the x lanes of a subvector
// load chunk consecutive row elements (coalesced), stage the products in
// LDS, and combine them before the first lane accumulates into the row
// sum. Vector 0's staging pass streams the round's matrix chunk from global
// memory; later vectors reuse the register-resident copy and the same LDS
// buffer for their own products (no extra LDS budget), so each vector
// repeats the stage/barrier/reduce sequence while the structure traffic is
// paid once.
func (w *wavefront) walkStaged(g geom) {
	acc := w.acc
	redSteps := log2ceil(g.chunk)
	redConflicts := reductionConflicts(redSteps)
	rounds := (w.maxRowLen + g.chunk - 1) / g.chunk
	for round := 0; round < rounds; round++ {
		for b := range w.in.Vs {
			for t := 0; t < g.factor; t++ {
				if w.load(round*g.chunk+t*w.x, b) {
					if b == 0 {
						acc.GatherRuns(w.in.RegColIdx, w.runs)
						acc.GatherRuns(w.in.RegVal, w.runs)
					}
					acc.Gather(w.in.RegV, w.vAddrs)
					acc.ALU(1) // product
				}
				acc.LDSWrite(1) // stage into localMem
			}
			acc.Barrier()
			// Segmented parallel reduction over the staged products: each
			// step reads partner values and writes the combined ones back,
			// at a doubling (power-of-two) stride — the access pattern
			// behind the bank-conflict estimate.
			acc.LDSRead(redSteps)
			acc.LDSWrite(redSteps)
			acc.BankConflicts(redConflicts)
			acc.ALU(redSteps)
			acc.Barrier()
			acc.ALU(1) // first lane accumulates into sum
		}
	}
	w.store()
}

// reductionConflicts estimates the serialized LDS accesses one segmented
// reduction pass suffers from bank collisions: step k accesses LDS words
// at stride 2^k, and on an hsa.LDSBanks-bank LDS a power-of-two stride s
// folds the lanes onto banks/min(s,banks) distinct banks, serializing
// min(s,banks) accesses where a conflict-free pattern would issue one.
// The estimate feeds the performance counters only; the cycle model is
// unchanged (LDS instructions are charged at a flat throughput cost).
func reductionConflicts(steps int) int {
	n := 0
	for k := 0; k < steps; k++ {
		n += min(1<<k, hsa.LDSBanks) - 1
	}
	return n
}

// DotRows is Kernel.Run's output stage: us[b][r] receives the k-ascending
// dot product of row r of a with vs[b], for every vector pair and every row
// covered by groups, whatever the point's geometry. It charges nothing —
// Kernel.Account does — and a launch whose product nobody reads (the tuning
// search's) skips it.
//
// The matrix slices are taken once and each row's bounds read once (a row's
// end is the next row's start). The loop order — groups, vectors, rows,
// then k ascending — and the val[k]*v[c] product fix the output bits that
// the golden digests pin.
func DotRows(a *sparse.CSR, vs, us [][]float64, groups []binning.Group) {
	rowPtr, colIdx, val := a.RowPtr, a.ColIdx, a.Val
	for _, g := range groups {
		start, end := int(g.Start), int(g.Start)+int(g.Count)
		for b, v := range vs {
			u := us[b][start:end]
			lo := rowPtr[start]
			for r, hi := range rowPtr[start+1 : end+1] {
				sum := 0.0
				cs, xs := colIdx[lo:hi], val[lo:hi]
				for k, c := range cs {
					sum += xs[k] * v[c]
				}
				u[r] = sum
				lo = hi
			}
		}
	}
}
