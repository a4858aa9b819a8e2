package hsa

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"spmvtune/internal/errdefs"
)

// Region is a simulated global-memory allocation. Kernels reference data by
// (region, element index); the simulator maps that to byte addresses for
// coalescing analysis. Regions are spaced so that distinct regions never
// share a segment.
type Region struct {
	base     int64
	elemSize int64
}

// Stats aggregates the device activity of one kernel launch.
type Stats struct {
	Cycles       float64 // modeled makespan including launch overheads
	ExecCycles   float64 // makespan excluding the host-side launch overhead
	Seconds      float64 // Cycles / ClockHz
	ALUOps       int64   // vector ALU instructions (per wavefront)
	LDSOps       int64   // LDS instructions (per wavefront)
	Barriers     int64
	Transactions int64 // global memory transactions (segments touched)
	CacheHits    int64
	CacheMisses  int64
	DRAMBytes    int64 // bytes fetched from DRAM (misses * segment)
	WorkGroups   int64
	Wavefronts   int64

	// Vectors is the number of dense right-hand sides the launch computed
	// (1 for plain SpMV, B for a fused SpMM launch). All other fields cover
	// the whole batch — the matrix-structure traffic is charged once, which
	// is exactly the amortization a fused launch buys — so per-request costs
	// at B>1 are the batch quantities divided by Vectors.
	Vectors int

	// Issue-cycle breakdown: total wavefront-cycles charged per category
	// (sums over all wavefronts, so they exceed the makespan; their ratios
	// profile where a kernel spends its time).
	CyclesALU     float64
	CyclesLDS     float64
	CyclesMem     float64
	CyclesBarrier float64
}

func (s Stats) String() string {
	return fmt.Sprintf("cycles=%.0f (%.3g s) wg=%d wf=%d alu=%d lds=%d tx=%d (hit %d/miss %d) dram=%dB",
		s.Cycles, s.Seconds, s.WorkGroups, s.Wavefronts, s.ALUOps, s.LDSOps,
		s.Transactions, s.CacheHits, s.CacheMisses, s.DRAMBytes)
}

// Add accumulates another launch's stats under *sequential* composition:
// the launches run back-to-back on the device, so makespans (Cycles,
// ExecCycles, Seconds) add, as do all activity counts. This is the right
// merge for per-bin launches dispatched one after another (Figure 4 step 3)
// — even when the host simulates those launches concurrently, the modeled
// device still runs them in sequence.
func (s *Stats) Add(o Stats) {
	s.Cycles += o.Cycles
	s.ExecCycles += o.ExecCycles
	s.Seconds += o.Seconds
	s.CyclesALU += o.CyclesALU
	s.CyclesLDS += o.CyclesLDS
	s.CyclesMem += o.CyclesMem
	s.CyclesBarrier += o.CyclesBarrier
	s.ALUOps += o.ALUOps
	s.LDSOps += o.LDSOps
	s.Barriers += o.Barriers
	s.Transactions += o.Transactions
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.DRAMBytes += o.DRAMBytes
	s.WorkGroups += o.WorkGroups
	s.Wavefronts += o.Wavefronts
	if o.Vectors > s.Vectors {
		s.Vectors = o.Vectors
	}
}

// Run accounts one kernel launch on a device. Create with NewRun, allocate
// Regions for every buffer the kernel touches, execute work-groups via
// BeginWG/WF/EndWG, then read Stats.
type Run struct {
	cfg      Config
	nextBase int64

	// Direct-mapped cache of segment tags; index = segment % len, value =
	// segment id + 1 (0 = empty). cacheMask is len-1 when len is a power of
	// two (the modulo of a non-negative segment is then a mask), else -1.
	cache     []int64
	cacheMask int64

	cuCycles []float64
	nextCU   int

	stats Stats

	// Optional performance-counter collection (nil = disabled, the
	// default). Every collection site is a single nil check, so disabled
	// runs pay nothing.
	ctr *Counters

	// Gather's scratch. segScratch lists the segments of the instruction
	// being charged; segSeen is a bitset over the segment ids of everything
	// Alloc handed out, all-zero between Gather calls. segShift is
	// log2(SegmentBytes), or -1 when that is not a power of two.
	segScratch []int64
	segSeen    []uint64
	segShift   int

	// wgFree recycles WG accountants (and their pipe arrays and WFAcc
	// blocks) within this Run: a launch dispatches thousands of work-groups
	// but holds only a handful open at once, so the freelist caps the
	// per-launch WG allocations at that high-water mark.
	wgFree []*WG

	// Armed fault-injection state for this launch (nil = fault-free) and
	// the caller's context, polled between work-groups so a canceled or
	// expired launch aborts instead of running to completion.
	fault *FaultState
	ctx   context.Context

	// cutoff (seconds, 0 = none) stops the launch once its partial Seconds
	// exceeds it; maxCU is the running most loaded CU that check reads.
	cutoff, maxCU float64
	stopped       bool
}

// InjectFaults arms the given fault state on this launch. A fault firing
// aborts the launch by panicking with a *KernelFault; guarded executors
// recover it into a typed error. Nil clears the state.
func (r *Run) InjectFaults(st *FaultState) { r.fault = st }

// SetContext attaches a context to the launch. Cancellation is polled
// every cancelCheckStride work-groups; an expired context aborts the
// launch by panicking with an error matching errdefs.ErrCanceled (and the
// underlying context sentinel), again recovered by guarded executors.
func (r *Run) SetContext(ctx context.Context) { r.ctx = ctx }

// SetVectors records the launch's right-hand-side count (Stats.Vectors).
// Single-vector launches never call it; fused SpMM binds set it to the
// batch width so cost consumers can amortize the batch makespan honestly.
func (r *Run) SetVectors(b int) {
	if b > 0 {
		r.stats.Vectors = b
	}
}

// SetCutoff arms a cutoff in seconds (0 = none) before the first work-group:
// once the partial Seconds exceeds it after a work-group, the run is Stopped.
// Stats' inputs only grow, so that value bounds the full launch's from below.
func (r *Run) SetCutoff(seconds float64) { r.cutoff = seconds }

// Stopped reports whether the launch crossed its cutoff; its walker must
// dispatch no further work-group, and Stats then holds the partial launch.
func (r *Run) Stopped() bool { return r.stopped }

// cancelCheckStride balances poll cost against abort latency: work-groups
// cost hundreds of modeled cycles, so checking every 64 dispatches keeps
// the overhead invisible while bounding overrun after cancellation.
const cancelCheckStride = 64

// faultAbort raises a typed kernel fault, terminating the launch.
func (r *Run) faultAbort(class FaultClass, detail string) {
	f := &KernelFault{Class: class, Detail: detail}
	if r.fault != nil {
		f.BinID, f.KernelID = r.fault.BinID, r.fault.KernelID
	}
	panic(f)
}

// NewRun creates a launch accountant for the given device. It panics on an
// invalid config (programmer error, caught in tests).
func NewRun(cfg Config) *Run {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	r := new(Run)
	r.reset(cfg)
	return r
}

// runPool recycles Run accountants across launches. The dominant launch
// allocation is the cache-tag array (CacheBytes/SegmentBytes entries — 64 KiB
// on the default device), paid per launch even for a bin of ten rows; a
// tuning search performs thousands of launches, so pooling them removes the
// bulk of its allocation and GC pressure.
var runPool = sync.Pool{New: func() any { return new(Run) }}

// AcquireRun returns a launch accountant from the process-wide pool, fully
// reset for the given device — behaviorally identical to NewRun(cfg) (the
// cache tags, CU loads, stats, allocator cursor and attached state are all
// cleared). Call Release when the launch's Stats and Counters have been
// read; the Run must not be touched afterwards.
func AcquireRun(cfg Config) *Run {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	r := runPool.Get().(*Run)
	r.reset(cfg)
	return r
}

// Release returns the Run to the pool. Safe after aborted launches too —
// the next AcquireRun resets every piece of state.
func (r *Run) Release() {
	r.ctr = nil // drop references eagerly; reset clears the rest on reuse
	r.fault = nil
	r.ctx = nil
	runPool.Put(r)
}

// reset restores the zero launch state on (possibly recycled) storage.
func (r *Run) reset(cfg Config) {
	r.cfg = cfg
	r.nextBase = 0
	sets := cfg.CacheBytes / cfg.SegmentBytes
	if sets < 1 {
		sets = 1
	}
	if int64(cap(r.cache)) < sets {
		r.cache = make([]int64, sets)
	} else {
		r.cache = r.cache[:sets]
		clear(r.cache)
	}
	r.cacheMask = -1
	if sets&(sets-1) == 0 {
		r.cacheMask = sets - 1
	}
	if cap(r.cuCycles) < cfg.NumCUs {
		r.cuCycles = make([]float64, cfg.NumCUs)
	} else {
		r.cuCycles = r.cuCycles[:cfg.NumCUs]
		clear(r.cuCycles)
	}
	r.nextCU = 0
	r.stats = Stats{}
	r.ctr = nil
	r.fault = nil
	r.ctx = nil
	r.cutoff, r.maxCU, r.stopped = 0, 0, false
	r.segShift = -1
	if seg := cfg.SegmentBytes; seg&(seg-1) == 0 {
		r.segShift = bits.TrailingZeros64(uint64(seg))
	}
	// Alloc re-extends segSeen, zeroing what it exposes, so whatever state an
	// aborted launch left behind cannot reach this one. wgFree and
	// segScratch keep their capacity — their contents are (re)initialized at
	// every BeginWG / Gather.
	r.segSeen = r.segSeen[:0]
}

// Config returns the device configuration of this run.
func (r *Run) Config() Config { return r.cfg }

// Alloc reserves a global-memory region of count elements of elemSize
// bytes. Alignment is rounded up to a segment boundary.
func (r *Run) Alloc(elemSize, count int64) Region {
	if elemSize <= 0 || count < 0 {
		panic(fmt.Sprintf("hsa: bad Alloc(%d, %d)", elemSize, count))
	}
	base := r.nextBase
	size := elemSize * count
	// Round region size up to segment granularity plus one guard segment so
	// regions never share a coalescing segment.
	seg := r.cfg.SegmentBytes
	r.nextBase = base + ((size+seg-1)/seg+1)*seg
	// Gather's bitset covers every segment handed out so far.
	if words := int(r.nextBase/seg+63) / 64; words > cap(r.segSeen) {
		r.segSeen = make([]uint64, words)
	} else if old := len(r.segSeen); words > old {
		r.segSeen = r.segSeen[:words]
		clear(r.segSeen[old:])
	}
	return Region{base: base, elemSize: elemSize}
}

// access charges one global transaction for the given segment id.
func (r *Run) access(seg int64) float64 {
	slot := seg & r.cacheMask
	if r.cacheMask < 0 || seg < 0 {
		slot = seg % int64(len(r.cache))
		if slot < 0 {
			slot = -slot
		}
	}
	r.stats.Transactions++
	if r.cache[slot] == seg+1 {
		r.stats.CacheHits++
		return r.cfg.TxHitCycles
	}
	r.cache[slot] = seg + 1
	r.stats.CacheMisses++
	r.stats.DRAMBytes += r.cfg.SegmentBytes
	return r.cfg.TxMissCycles
}

// WG is the accountant for one work-group. Wavefronts are assigned to SIMD
// pipes round-robin; the work-group's cost is its dispatch overhead plus
// the most loaded pipe.
type WG struct {
	run    *Run
	pipes  []float64
	nextWF int

	// accs recycles wavefront accountants across this WG's reuses (End
	// returns the WG to its Run's freelist): pointers stay stable, so a
	// work-group's wavefronts cost zero allocations once warmed up.
	accs    []*WFAcc
	nextAcc int
}

// BeginWG starts accounting a work-group.
func (r *Run) BeginWG() *WG {
	r.stats.WorkGroups++
	var g *WG
	if n := len(r.wgFree); n > 0 {
		g = r.wgFree[n-1]
		r.wgFree = r.wgFree[:n-1]
	} else {
		g = new(WG)
	}
	g.run = r
	g.nextWF = 0
	g.nextAcc = 0
	if cap(g.pipes) < r.cfg.SIMDPerCU {
		g.pipes = make([]float64, r.cfg.SIMDPerCU)
	} else {
		g.pipes = g.pipes[:r.cfg.SIMDPerCU]
		clear(g.pipes)
	}
	return g
}

// WF returns the accountant for the next wavefront of this work-group.
func (g *WG) WF() *WFAcc {
	pipe := g.nextWF % len(g.pipes)
	g.nextWF++
	g.run.stats.Wavefronts++
	var a *WFAcc
	if g.nextAcc < len(g.accs) {
		a = g.accs[g.nextAcc]
	} else {
		a = new(WFAcc)
		g.accs = append(g.accs, a)
	}
	g.nextAcc++
	a.run, a.wg, a.pipe = g.run, g, pipe
	return a
}

// End finishes the work-group: its cost (dispatch + slowest SIMD pipe) is
// assigned to the next compute unit round-robin. The WG (and its wavefront
// accountants) must not be used afterwards — End recycles them for the
// launch's next BeginWG.
func (g *WG) End() {
	max := 0.0
	for _, p := range g.pipes {
		if p > max {
			max = p
		}
	}
	r := g.run
	r.wgFree = append(r.wgFree, g)
	if r.ctr != nil {
		r.ctr.recordWG(r.cfg.WGLaunchCycles + max)
	}
	r.cuCycles[r.nextCU] += r.cfg.WGLaunchCycles + max
	if f := r.fault; f != nil && f.cycleBudget > 0 && r.cuCycles[r.nextCU] > f.cycleBudget {
		r.faultAbort(FaultCycleBudget,
			fmt.Sprintf("compute unit exceeded %.0f cycle budget", f.cycleBudget))
	}
	if r.cutoff > 0 {
		if c := r.cuCycles[r.nextCU]; c > r.maxCU {
			r.maxCU = c
		}
		_, _, sec := r.times(r.maxCU)
		r.stopped = sec > r.cutoff
	}
	r.nextCU = (r.nextCU + 1) % len(r.cuCycles)
	if r.ctx != nil && r.stats.WorkGroups%cancelCheckStride == 0 {
		if err := r.ctx.Err(); err != nil {
			panic(errdefs.Canceled(err))
		}
	}
}

// Stats finalizes and returns the launch statistics: the makespan is the
// most loaded compute unit, bounded below by the DRAM bandwidth roofline,
// plus the kernel launch overhead.
func (r *Run) Stats() Stats {
	s := r.stats
	busiest := 0.0
	for _, c := range r.cuCycles {
		if c > busiest {
			busiest = c
		}
	}
	s.ExecCycles, s.Cycles, s.Seconds = r.times(busiest)
	return s
}

// times returns the makespan, cycles and seconds of the launch so far
// given its most loaded compute unit's cycles: Stats and the cutoff share it.
func (r *Run) times(busiest float64) (exec, cycles, seconds float64) {
	exec = busiest
	if bw := float64(r.stats.DRAMBytes) / r.cfg.DRAMBytesPerCycle; bw > exec {
		exec = bw
	}
	cycles = exec + r.cfg.KernelLaunchCycles
	return exec, cycles, cycles / r.cfg.ClockHz
}

// WFAcc accounts the instructions of one wavefront. All costs are charged
// per wavefront instruction: divergent lanes do not reduce cost, which is
// exactly the SIMD-underutilization effect the paper describes.
type WFAcc struct {
	run  *Run
	wg   *WG
	pipe int
}

func (a *WFAcc) add(c float64) { a.wg.pipes[a.pipe] += c }

// ALU charges n vector ALU instructions.
func (a *WFAcc) ALU(n int) {
	a.run.stats.ALUOps += int64(n)
	c := float64(n) * a.run.cfg.ALUCycles
	a.run.stats.CyclesALU += c
	a.add(c)
}

// LDS charges n local-data-share instructions. Counter collection records
// them as reads; kernels that know the direction should prefer the
// LDSRead/LDSWrite pair.
func (a *WFAcc) LDS(n int) { a.lds(n, false) }

// LDSRead charges n LDS read instructions.
func (a *WFAcc) LDSRead(n int) { a.lds(n, false) }

// LDSWrite charges n LDS write instructions.
func (a *WFAcc) LDSWrite(n int) { a.lds(n, true) }

// lds charges n LDS instructions, splitting the counter by direction. The
// cycle cost is identical either way — the split exists for the profile,
// not the model.
func (a *WFAcc) lds(n int, write bool) {
	if f := a.run.fault; f != nil && f.ldsOverflow {
		a.run.faultAbort(FaultLDSOverflow,
			fmt.Sprintf("LDS allocation exceeds %d bytes per work-group", a.run.cfg.LDSBytesPerWG))
	}
	if ctr := a.run.ctr; ctr != nil {
		if write {
			ctr.LDSWrites += int64(n)
		} else {
			ctr.LDSReads += int64(n)
		}
	}
	a.run.stats.LDSOps += int64(n)
	c := float64(n) * a.run.cfg.LDSCycles
	a.run.stats.CyclesLDS += c
	a.add(c)
}

// BankConflicts records n estimated serialized LDS accesses from bank
// collisions. Kernels report the estimate where they know the access
// pattern (e.g. the strided segmented reduction); it feeds the counters
// only — no cycles are charged, keeping the cost model unchanged.
func (a *WFAcc) BankConflicts(n int) {
	if ctr := a.run.ctr; ctr != nil {
		ctr.LDSBankConflicts += int64(n)
	}
}

// Barrier charges one work-group barrier.
func (a *WFAcc) Barrier() {
	if f := a.run.fault; f != nil && f.barrierDiverge {
		a.run.faultAbort(FaultBarrierDivergence,
			"work-group deadlocked on a barrier reached by diverged wavefronts")
	}
	if ctr := a.run.ctr; ctr != nil {
		ctr.BarrierWaits++
	}
	a.run.stats.Barriers++
	a.run.stats.CyclesBarrier += a.run.cfg.BarrierCycles
	a.add(a.run.cfg.BarrierCycles)
}

// Gather charges one vector memory instruction whose lanes access the
// element indices idx within reg. The cost is one transaction per distinct
// segment touched — fully coalesced access to consecutive elements costs
// few transactions, a scattered gather up to one per lane. The segments are
// charged in the order their first lane appears in idx: access mutates the
// direct-mapped tags and the cost is a float sum, so that order is part of
// the model.
func (a *WFAcc) Gather(reg Region, idx []int64) {
	if len(idx) == 0 {
		return
	}
	r := a.run
	if ctr := r.ctr; ctr != nil {
		ctr.recordMem(int64(len(idx)), r.cfg.WavefrontSize)
	}
	segs, seen := r.segScratch[:0], r.segSeen
	seg, shift := r.cfg.SegmentBytes, r.segShift
	prev := int64(math.MinInt64)
	for _, i := range idx {
		s := segment(reg.base+i*reg.elemSize, seg, shift)
		if s == prev {
			continue
		}
		prev = s
		if fresh(seen, segs, s) {
			segs = append(segs, s)
		}
	}
	r.charge(a, segs)
}

// LaneRun is Count consecutive element indices from Start: the lanes of one
// row that a lock-step load reads side by side.
type LaneRun struct{ Start, Count int64 }

// GatherRuns charges one vector memory instruction whose lanes access the
// elements of runs, run after run. It charges exactly what Gather charges
// for the expanded lane list — the same segments in the same
// first-occurrence order, the same Stats and Counters — but walks segments
// instead of lanes: the lanes of a run touch every segment from its first
// lane's to its last's whenever an element is no wider than a segment.
func (a *WFAcc) GatherRuns(reg Region, runs []LaneRun) {
	r := a.run
	segs, seen := r.segScratch[:0], r.segSeen
	seg, shift := r.cfg.SegmentBytes, r.segShift
	lanes := int64(0)
	for _, lr := range runs {
		if lr.Count <= 0 {
			continue
		}
		lanes += lr.Count
		if reg.elemSize > seg {
			// Consecutive lanes may skip a segment: walk them one by one.
			for i := lr.Start; i < lr.Start+lr.Count; i++ {
				if s := segment(reg.base+i*reg.elemSize, seg, shift); fresh(seen, segs, s) {
					segs = append(segs, s)
				}
			}
			continue
		}
		first := segment(reg.base+lr.Start*reg.elemSize, seg, shift)
		last := segment(reg.base+(lr.Start+lr.Count-1)*reg.elemSize, seg, shift)
		for s := first; s <= last; s++ {
			if fresh(seen, segs, s) {
				segs = append(segs, s)
			}
		}
	}
	if lanes == 0 {
		return
	}
	if ctr := r.ctr; ctr != nil {
		ctr.recordMem(lanes, r.cfg.WavefrontSize)
	}
	r.charge(a, segs)
}

// segment returns the segment holding byte address addr: a shift on
// power-of-two segment sizes (shift >= 0), the division otherwise — and
// below zero, where the two round apart.
func segment(addr, seg int64, shift int) int64 {
	if shift < 0 || addr < 0 {
		return addr / seg
	}
	return addr >> (uint(shift) & 63)
}

// fresh reports whether segment s is not yet one of the instruction's
// segments segs, and marks it in seen (the Run's segSeen). A segment
// outside every region has no bit to mark and is looked up in segs itself.
func fresh(seen []uint64, segs []int64, s int64) bool {
	if w := uint64(s) >> 6; w < uint64(len(seen)) {
		bit := uint64(1) << (uint64(s) & 63)
		if seen[w]&bit != 0 {
			return false
		}
		seen[w] |= bit
		return true
	}
	return !slices.Contains(segs, s)
}

// charge issues one transaction per segment of segs, in order, clears their
// segSeen bits and adds the instruction's cost to the wavefront's pipe.
func (r *Run) charge(a *WFAcc, segs []int64) {
	r.segScratch = segs[:0]
	seen := r.segSeen
	cost := 0.0
	for _, s := range segs {
		if w := uint64(s) >> 6; w < uint64(len(seen)) {
			seen[w] = 0 // only this instruction's bits are set in the word
		}
		cost += r.access(s)
	}
	r.stats.CyclesMem += cost
	a.add(cost)
}

// Seq charges one vector memory instruction accessing count consecutive
// elements starting at start — the fully coalesced case.
func (a *WFAcc) Seq(reg Region, start, count int64) {
	if count <= 0 {
		return
	}
	if ctr := a.run.ctr; ctr != nil {
		ctr.recordMem(count, a.run.cfg.WavefrontSize)
	}
	seg := a.run.cfg.SegmentBytes
	first := (reg.base + start*reg.elemSize) / seg
	last := (reg.base + (start+count-1)*reg.elemSize) / seg
	cost := 0.0
	for s := first; s <= last; s++ {
		cost += a.run.access(s)
	}
	a.run.stats.CyclesMem += cost
	a.add(cost)
}

// Scalar charges a single-lane access (e.g., one thread reading rowPtr).
func (a *WFAcc) Scalar(reg Region, idx int64) {
	a.Seq(reg, idx, 1)
}
