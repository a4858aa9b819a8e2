package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"time"

	"spmvtune/internal/binning"
	"spmvtune/internal/errdefs"
	"spmvtune/internal/hsa"
	"spmvtune/internal/kernels"
	"spmvtune/internal/plan"
	"spmvtune/internal/plancache"
	"spmvtune/internal/sparse"
	"spmvtune/internal/trace"
)

// Typed failure sentinels of the guarded execution path, re-exported from
// the shared taxonomy. Match with errors.Is.
var (
	ErrInvalidMatrix  = errdefs.ErrInvalidMatrix
	ErrKernelFault    = errdefs.ErrKernelFault
	ErrBudgetExceeded = errdefs.ErrBudgetExceeded
	ErrCanceled       = errdefs.ErrCanceled
)

// Stage identifies a link of the guarded fallback chain, in degradation
// order: the model's predicted kernel, then Kernel-Serial (the kernel with
// no LDS traffic, no barriers and no divergence hazards beyond row length),
// then the native CPU reference, which cannot fault.
type Stage int

const (
	StagePredicted Stage = iota
	StageSerialFallback
	StageCPUReference
)

// String names the stage.
func (s Stage) String() string {
	switch s {
	case StagePredicted:
		return "predicted"
	case StageSerialFallback:
		return "serial-fallback"
	case StageCPUReference:
		return "cpu-reference"
	}
	return fmt.Sprintf("stage(%d)", int(s))
}

// GuardOptions tunes guarded plan execution (ExecutePlanBatchOpts). The zero
// value selects defaults.
type GuardOptions struct {
	// MaxAttempts is the number of launches tried per kernel in the chain
	// before falling back to the next link; retries absorb transient
	// faults. <= 0 selects 2.
	MaxAttempts int
	// Backoff is the delay before the first retry of a kernel, doubling
	// per further retry. Negative disables; 0 selects 200µs. The wait
	// aborts immediately if the context is canceled.
	Backoff time.Duration
	// Tolerance is the output-verification tolerance against the reference
	// SpMV (combined absolute/relative). <= 0 selects 1e-9.
	Tolerance float64
	// Faults is the deterministic fault-injection plan applied to device
	// launches; nil injects nothing. Production callers leave it nil —
	// it exists so degradation paths are testable.
	Faults *hsa.FaultPlan
	// Counters enables device performance-counter collection on every
	// simulated launch: each bin's ExecProfile then carries the measured
	// lane utilization, LDS mix and load imbalance, and ExecReport.Counters
	// sums them. Off by default; disabled runs pay a single nil check per
	// collection site.
	Counters bool
	// Trace receives one JSONL span per pipeline phase (features →
	// predict-u → bin → predict-kernel → execute-bin). Nil disables
	// emission; every call site is nil-safe.
	Trace *trace.Writer
	// TraceID tags this run's spans so concurrent runs sharing one Writer
	// stay separable.
	TraceID string
	// Workers bounds the host pool independent bins are served over: <= 1
	// (including the zero value) serves bins sequentially in bin order —
	// the legacy behavior; > 1 fans bins over at most Workers goroutines.
	// Bins write disjoint row ranges of u and each keeps its own fault
	// arming, retry/backoff loop and fallback chain; per-bin sub-reports
	// merge in bin order, so on the success path u and the ExecReport are
	// identical to a sequential run's (trace spans may interleave, and on
	// an aborting error the parallel run may have served bins a sequential
	// run would not have reached).
	Workers int
}

// DefaultGuardOptions returns the production defaults.
func DefaultGuardOptions() GuardOptions {
	return GuardOptions{MaxAttempts: 2, Backoff: 200 * time.Microsecond, Tolerance: 1e-9}
}

func (o GuardOptions) withDefaults() GuardOptions {
	d := DefaultGuardOptions()
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = d.MaxAttempts
	}
	if o.Backoff == 0 {
		o.Backoff = d.Backoff
	}
	if o.Tolerance <= 0 {
		o.Tolerance = d.Tolerance
	}
	return o
}

// Attempt records one execution attempt of a bin.
type Attempt struct {
	Stage  Stage
	Kernel string // kernel name, or "reference" for the CPU stage
	Retry  int    // zero-based retry index within the stage
	Err    string // failure description; empty on the accepted attempt
}

// BinReport records how one bin was finally served.
type BinReport struct {
	Bin      int
	Rows     int
	Attempts []Attempt // every attempt in order; the last one succeeded
	Final    Stage     // chain link that produced the accepted result
}

// Degraded reports whether the bin needed anything beyond the first launch
// of its predicted kernel.
func (b *BinReport) Degraded() bool {
	return b.Final != StagePredicted || len(b.Attempts) > 1
}

// ExecReport records every fallback and retry decision of one guarded run,
// so callers (and observability layers) can see what degraded and why.
type ExecReport struct {
	Decision Decision
	// DecisionFallback is set when the run executed the single-bin
	// Kernel-Serial strategy instead of a prediction: the plan's predict path
	// failed (TuningPlan.Fallback) or the plan no longer fits the matrix.
	DecisionFallback bool
	Bins             []BinReport
	// Stats sums the device stats of the accepted simulated launches only;
	// aborted launches never reach stats finalization.
	Stats hsa.Stats
	// Profiles records how each bin actually executed, in service order:
	// kernel chosen, fallback depth, modeled cost, and (when
	// GuardOptions.Counters is set) the device performance counters.
	Profiles []plan.ExecProfile
	// Counters sums the device counters of the accepted launches; valid
	// only when CountersEnabled (GuardOptions.Counters was set).
	Counters        hsa.Counters
	CountersEnabled bool
	// Retries counts re-launches of a kernel already attempted on its bin;
	// Fallbacks counts bins not served by their predicted kernel; CPUServed
	// counts bins that degraded all the way to the native reference.
	Retries   int
	Fallbacks int
	CPUServed int
}

// Degraded reports whether any part of the run deviated from the clean
// predicted path.
func (r *ExecReport) Degraded() bool {
	if r.DecisionFallback || r.Retries > 0 || r.Fallbacks > 0 || r.CPUServed > 0 {
		return true
	}
	for i := range r.Bins {
		if r.Bins[i].Degraded() {
			return true
		}
	}
	return false
}

// String renders a one-line summary plus one line per degraded bin.
func (r *ExecReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "guarded run: %d bins, %d retries, %d fallbacks, %d cpu-served",
		len(r.Bins), r.Retries, r.Fallbacks, r.CPUServed)
	if r.DecisionFallback {
		sb.WriteString(", decision fell back to serial")
	}
	if !r.Degraded() {
		sb.WriteString(" (clean)")
	}
	for i := range r.Bins {
		b := &r.Bins[i]
		if !b.Degraded() {
			continue
		}
		fmt.Fprintf(&sb, "\n  bin %d (%d rows): served by %s after", b.Bin, b.Rows, b.Final)
		for _, at := range b.Attempts {
			if at.Err == "" {
				continue
			}
			fmt.Fprintf(&sb, " [%s/%s retry %d: %s]", at.Stage, at.Kernel, at.Retry, at.Err)
		}
	}
	return sb.String()
}

// runBinsGuarded serves every non-empty bin for the B vector pairs
// (vs[b], us[b]) through the fallback chain — the bin loop of
// ExecutePlanBatchOpts. wants[b] is vector b's reference result. kernelFor
// maps a non-empty bin to its predicted kernel ID (a func rather than a map
// so the plan's allocation-free lookup serves it). rep records the launches
// of the full width; isolated has one slot per vector for the report of the
// bins that vector had to be re-served for alone (see runBinBatchGuarded).
//
// Bins run on a pool of opt.Workers goroutines (<= 1: in bin order on the
// caller's). Each bin runs against private sub-reports and the sub-reports
// merge in bin order, so the success-path result is the same at every
// worker count. An aborting error (cancellation) stops bins that have not
// started and is returned after the merge.
func (fw *Framework) runBinsGuarded(ctx context.Context, a *sparse.CSR, vs, us, wants [][]float64,
	b *binning.Binning, kernelFor func(binID int) int, rs *replayScope, opt GuardOptions, rep *ExecReport, isolated []*ExecReport) error {

	bins := b.NonEmpty()
	workers := min(opt.Workers, len(bins))
	type binResult struct {
		rep      *ExecReport
		isolated []*ExecReport
		err      error
	}
	results := make([]binResult, len(bins))
	var aborted atomic.Bool
	forEachLimit(workers, len(bins), func(i int) {
		if aborted.Load() {
			return
		}
		res := &results[i]
		res.rep = rep.child()
		res.isolated = make([]*ExecReport, len(isolated))
		res.err = fw.runBinBatchGuarded(ctx, a, vs, us, wants, b, bins[i], kernelFor(bins[i]), rs, opt, res.rep, res.isolated)
		if res.err != nil {
			aborted.Store(true)
		}
	})
	var firstErr error
	for _, res := range results {
		if res.rep == nil {
			continue
		}
		rep.merge(res.rep)
		for v, iso := range res.isolated {
			if iso == nil {
				continue
			}
			if isolated[v] == nil {
				isolated[v] = rep.child()
			}
			isolated[v].merge(iso)
		}
		if res.err != nil && firstErr == nil {
			firstErr = res.err
		}
	}
	return firstErr
}

// child returns an empty report for a part of r's run (one bin, or one
// isolated vector), sharing its decision and counter mode.
func (r *ExecReport) child() *ExecReport {
	return &ExecReport{Decision: r.Decision, CountersEnabled: r.CountersEnabled}
}

// merge appends a child report's bins and sums to r.
func (r *ExecReport) merge(c *ExecReport) {
	r.Bins = append(r.Bins, c.Bins...)
	r.Profiles = append(r.Profiles, c.Profiles...)
	r.Stats.Add(c.Stats)
	if r.CountersEnabled {
		r.Counters.Add(c.Counters)
	}
	r.Retries += c.Retries
	r.Fallbacks += c.Fallbacks
	r.CPUServed += c.CPUServed
}

// decideGuarded runs the predict path with panic recovery, emitting one
// span per predict phase when tw is non-nil. The model snapshot m is
// loaded once by the caller so the decision and any version recorded next
// to it refer to the same model even under a concurrent hot-swap.
func (fw *Framework) decideGuarded(m *Model, a *sparse.CSR, tw *trace.Writer, traceID string) (d Decision, b *binning.Binning, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("core: predict path panicked: %v", rec)
		}
	}()
	d, b = fw.decideTraced(m, a, tw, traceID)
	for _, binID := range b.NonEmpty() {
		if _, ok := d.KernelByBin[binID]; !ok {
			return d, b, fmt.Errorf("core: no kernel assigned to non-empty bin %d", binID)
		}
	}
	return d, b, nil
}

// runBinBatchGuarded serves one bin for the B vector pairs. One launch of
// width B walks the predicted → Kernel-Serial chain with bounded retries,
// and a simulated launch's output is verified per vector (a replayed one is
// the reference's own, see binAttempt):
//
//   - every vector wrong is a kernel-level failure: the launch is retried,
//     then the next chain link tried (at B = 1 this is the whole story);
//   - some vectors wrong is per-request corruption: the launch is accepted
//     for the passing vectors and each failing one is re-served for this bin
//     alone, as a width-1 call of this function reporting into its
//     isolated[b] slot. That call re-arms the same fault plan, so a
//     deterministic per-vector fault degrades that request through its own
//     retries and fallbacks without touching the others;
//   - chain exhausted: at B > 1 every vector is re-served alone; at B = 1
//     the bin is copied from the reference result, which cannot fail.
//
// It returns a non-nil error only on cancellation.
func (fw *Framework) runBinBatchGuarded(ctx context.Context, a *sparse.CSR, vs, us, wants [][]float64,
	b *binning.Binning, binID, predictedKID int, rs *replayScope, opt GuardOptions, rep *ExecReport, isolated []*ExecReport) error {

	nb := len(vs)
	groups := b.Bins[binID]
	br := BinReport{Bin: binID, Rows: b.NumRows(binID)}
	isolate := func(v int) error {
		if isolated[v] == nil {
			isolated[v] = rep.child()
		}
		return fw.runBinBatchGuarded(ctx, a, vs[v:v+1], us[v:v+1], wants[v:v+1], b, binID, predictedKID, rs, opt, isolated[v], nil)
	}

	// The simulated chain: the predicted kernel, then Kernel-Serial unless
	// serial was the prediction.
	type link struct {
		stage Stage
		kid   int
	}
	chain := []link{{StagePredicted, predictedKID}}
	if predictedKID != 0 {
		chain = append(chain, link{StageSerialFallback, 0})
	}

	for _, ln := range chain {
		info, ok := kernels.ByID(ln.kid)
		if !ok {
			br.Attempts = append(br.Attempts, Attempt{
				Stage: ln.stage, Kernel: fmt.Sprintf("kernel#%d", ln.kid),
				Err: "unknown kernel id (stale model?)",
			})
			continue
		}
		for retry := 0; retry < opt.MaxAttempts; retry++ {
			if retry > 0 {
				rep.Retries++
				if err := sleepBackoff(ctx, opt.Backoff<<(retry-1)); err != nil {
					rep.Bins = append(rep.Bins, br)
					return err
				}
			}
			if err := ctx.Err(); err != nil {
				rep.Bins = append(rep.Bins, br)
				return errdefs.Canceled(err)
			}
			fs := opt.Faults.Arm(binID, ln.kid, retry)
			spanStart := opt.Trace.Now()
			wallStart := time.Now()
			st, ctr, replayed, err := fw.binAttempt(ctx, a, vs, us, wants, info, groups, fs, rs, opt.Counters, binID)
			var failed []int
			if err == nil && !replayed { // a replayed bin was served from wants: nothing to verify
				failRow := 0
				for v := range us {
					if row, ok := verifyBin(us[v], wants[v], groups, opt.Tolerance); !ok {
						if len(failed) == 0 {
							failRow = row
						}
						failed = append(failed, v)
					}
				}
				if len(failed) == nb {
					// Every vector is wrong: that is a kernel-level failure,
					// not per-request corruption — retry the launch.
					err = fmt.Errorf("core: output verification failed at row %d: %w", failRow, errdefs.ErrKernelFault)
					if nb > 1 {
						err = fmt.Errorf("core: output verification failed for all %d vectors, first at vector %d row %d: %w",
							nb, failed[0], failRow, errdefs.ErrKernelFault)
					}
				}
			}
			if err != nil {
				br.Attempts = append(br.Attempts, Attempt{Stage: ln.stage, Kernel: info.Name, Retry: retry, Err: err.Error()})
				if errors.Is(err, errdefs.ErrCanceled) {
					rep.Bins = append(rep.Bins, br)
					return err
				}
				continue
			}
			br.Attempts = append(br.Attempts, Attempt{Stage: ln.stage, Kernel: info.Name, Retry: retry})
			br.Final = ln.stage
			if ln.stage != StagePredicted {
				rep.Fallbacks++
			}
			rep.Stats.Add(st)
			if ctr != nil {
				rep.Counters.Add(*ctr)
			}
			pr := plan.ExecProfile{
				Bin: binID, U: rep.Decision.U,
				Kernel: ln.kid, KernelName: info.Name,
				Rows: br.Rows, NNZ: binNNZ(a, groups),
				Vectors: st.Vectors, // 0 for a single-vector launch, like the stats
				Stage:   ln.stage.String(), FallbackDepth: int(ln.stage),
				Attempts: len(br.Attempts),
				Cycles:   st.Cycles, Seconds: st.Seconds,
				WallNs:   time.Since(wallStart).Nanoseconds(),
				Counters: ctr,
				Replayed: replayed,
			}
			rep.Profiles = append(rep.Profiles, pr)
			emitBinSpan(opt, spanStart, &pr)
			rep.Bins = append(rep.Bins, br)
			for _, v := range failed {
				if err := isolate(v); err != nil {
					return err
				}
			}
			return nil
		}
	}

	rep.Fallbacks++
	if nb > 1 {
		// The whole batch leaves the fused path for this bin.
		rep.Bins = append(rep.Bins, br)
		for v := range vs {
			if err := isolate(v); err != nil {
				return err
			}
		}
		return nil
	}

	// Terminal fallback: the reference result is already in wants; serving
	// the bin from it is exact, so no verification step is needed.
	spanStart := opt.Trace.Now()
	wallStart := time.Now()
	copyRows(us, wants, groups)
	br.Attempts = append(br.Attempts, Attempt{Stage: StageCPUReference, Kernel: "reference"})
	br.Final = StageCPUReference
	rep.CPUServed++
	pr := plan.ExecProfile{
		Bin: binID, U: rep.Decision.U,
		Kernel: -1, KernelName: "reference",
		Rows: br.Rows, NNZ: binNNZ(a, groups),
		Stage: StageCPUReference.String(), FallbackDepth: int(StageCPUReference),
		Attempts: len(br.Attempts),
		WallNs:   time.Since(wallStart).Nanoseconds(),
	}
	rep.Profiles = append(rep.Profiles, pr)
	emitBinSpan(opt, spanStart, &pr)
	rep.Bins = append(rep.Bins, br)
	return nil
}

// copyRows serves the rows covered by groups from the reference results:
// us[b] receives wants[b]'s rows, for every vector.
func copyRows(us, wants [][]float64, groups []binning.Group) {
	for _, g := range groups {
		start, end := int(g.Start), int(g.Start)+int(g.Count)
		for b, u := range us {
			copy(u[start:end], wants[b][start:end])
		}
	}
}

// binNNZ sums the stored non-zeros of the rows covered by groups.
func binNNZ(a *sparse.CSR, groups []binning.Group) int64 {
	var n int64
	for _, g := range groups {
		n += a.RowPtr[int(g.Start)+int(g.Count)] - a.RowPtr[g.Start]
	}
	return n
}

// emitBinSpan writes one execute-bin span for an accepted bin result. The
// attrs hold only deterministic measurements (modeled cycles, counters) —
// wall time rides on the span's own clock fields, which the deterministic
// Writer suppresses, keeping identical runs byte-identical.
func emitBinSpan(opt GuardOptions, start time.Time, pr *plan.ExecProfile) {
	if opt.Trace == nil {
		return
	}
	attrs := map[string]any{
		"bin": pr.Bin, "u": pr.U, "kernel": pr.KernelName,
		"stage": pr.Stage, "fallbackDepth": pr.FallbackDepth,
		"attempts": pr.Attempts, "rows": pr.Rows, "nnz": pr.NNZ,
		"cycles": pr.Cycles,
	}
	if pr.Replayed {
		attrs["replayed"] = true
	}
	if c := pr.Counters; c != nil {
		attrs["activeLaneRatio"] = c.ActiveLaneRatio()
		attrs["memInstrs"] = c.MemInstrs
		attrs["ldsReads"] = c.LDSReads
		attrs["ldsWrites"] = c.LDSWrites
		attrs["ldsBankConflicts"] = c.LDSBankConflicts
		attrs["barrierWaits"] = c.BarrierWaits
		attrs["loadImbalance"] = c.LoadImbalance()
	}
	opt.Trace.Emit(opt.TraceID, "execute-bin", start, attrs)
}

// binAttempt runs one launch attempt of a kernel on a bin with panic
// recovery: injected device faults and cancellation surface as their typed
// errors, and any other panic — a misbehaving kernel indexing out of range,
// say — is contained as a generic kernel fault instead of taking down the
// process.
//
// An unarmed attempt (fs == nil) inside a replay scope is a pure function of
// its memo cell: the first one simulates and stores its accounting, later
// ones take the stored numbers and serve the bin's rows by copying them from
// wants, the reference results (replayed == true: the caller has nothing to
// verify). The matrix is then walked once per request, by the reference
// product that also validated it. An armed attempt never reads or writes the
// memo.
//
// A simulated launch runs on fw.Cfg.Device through launchKernel. An armed
// silent-corruption fault poisons exactly one vector of the launch (binID
// mod the width), modeling per-request corruption rather than a whole-launch
// failure: the other vectors' outputs stay valid, which is what per-vector
// verification and isolation rely on.
func (fw *Framework) binAttempt(ctx context.Context, a *sparse.CSR, vs, us, wants [][]float64,
	k kernels.Info, groups []binning.Group, fs *hsa.FaultState, rs *replayScope, collect bool, binID int) (st hsa.Stats, ctr *hsa.Counters, replayed bool, err error) {

	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		if e, ok := rec.(error); ok && (errors.Is(e, errdefs.ErrKernelFault) || errors.Is(e, errdefs.ErrCanceled)) {
			err = e
			return
		}
		err = fmt.Errorf("core: recovered kernel panic: %v: %w", rec, errdefs.ErrKernelFault)
	}()

	var cell plancache.CostKey
	memoize := fs == nil && rs != nil
	if memoize {
		cell = rs.cell(binID, k.ID, len(vs))
		if c, ok := rs.memo.Get(cell); ok {
			copyRows(us, wants, groups)
			fw.replayed.Add(1)
			if collect {
				// A copy scoped to this block: the escaping pointer is then
				// allocated only when counters are collected.
				cc := c.counters
				ctr = &cc
			}
			return c.stats, ctr, true, nil
		}
	}
	fw.simulated.Add(1)
	st, ctr = launchKernel(ctx, fw.Cfg.Device, a, vs, us, k.Kernel, kernels.Kernel.Run, groups, fs, collect, 0)
	if memoize {
		c := launchCost{stats: st}
		if ctr != nil {
			c.counters = *ctr
		}
		rs.memo.Put(cell, c)
	}
	if fs.PoisonOutput() {
		// Silent data corruption: the launch "succeeded" but one vector's
		// output rows are NaN. Only the verification oracle can catch this.
		u := us[binID%len(us)]
		for _, g := range groups {
			for r := g.Start; r < g.Start+g.Count; r++ {
				u[r] = math.NaN()
			}
		}
	}
	return st, ctr, false, nil
}

// verifyBin compares the bin's output rows against the reference within
// tol, treating any NaN/Inf disagreement as a mismatch (a plain tolerance
// compare is blind to NaN because every NaN comparison is false). Returns
// the first failing row, or ok. Equal values — the common case — pass
// first, which decides nothing differently for the positive tol
// withDefaults guarantees: equal finite values differ by 0 <= tol, equal
// infinities are accepted below too, and a NaN never compares equal.
func verifyBin(u, want []float64, groups []binning.Group, tol float64) (int, bool) {
	for _, g := range groups {
		start, end := int(g.Start), int(g.Start)+int(g.Count)
		got, ref := u[start:end], want[start:end]
		for i, a := range got {
			b := ref[i]
			if a == b {
				continue
			}
			if math.IsNaN(a) || math.IsInf(a, 0) {
				if math.IsNaN(a) && math.IsNaN(b) {
					continue
				}
				if a == b { // same infinity
					continue
				}
				return start + i, false
			}
			d := math.Abs(a - b)
			scale := math.Max(math.Abs(a), math.Abs(b))
			if d > tol && d > tol*scale {
				return start + i, false
			}
		}
	}
	return 0, true
}

// sleepBackoff waits d, aborting early with a typed cancellation error if
// the context expires first.
func sleepBackoff(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return errdefs.Canceled(ctx.Err())
	case <-t.C:
		return nil
	}
}
