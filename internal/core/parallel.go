package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"spmvtune/internal/binning"
	"spmvtune/internal/hsa"
	"spmvtune/internal/kernels"
	"spmvtune/internal/sparse"
)

// walk is how a launch drives its kernel: kernels.Kernel.Run writes the
// product into us and charges the device, kernels.Kernel.Account only
// charges it, for callers that read nothing but the cost.
type walk = func(kernels.Kernel, *hsa.Run, *kernels.Input, []binning.Group)

// launchKernel executes one kernel launch over the B vector pairs
// (vs[b], us[b]) on the device — plain SpMV is the B=1 launch — on one
// accountant: every work-group runs in order on the calling goroutine
// against one shared cache-tag array. Faults and cancellation surface as
// panics on the calling goroutine; callers that need containment wrap this
// in a recover (see Framework.binAttempt and simulateKernelCtx). With
// collect set the launch gathers device performance counters, returned
// alongside the stats (nil otherwise). A launch with a cutoff above 0 stops
// exactly when its returned Seconds exceeds it (hsa.Run.SetCutoff).
func launchKernel(ctx context.Context, dev hsa.Config, a *sparse.CSR, vs, us [][]float64,
	k kernels.Kernel, walk walk, groups []binning.Group, fs *hsa.FaultState, collect bool, cutoff float64) (hsa.Stats, *hsa.Counters) {

	run := hsa.AcquireRun(dev)
	run.SetCutoff(cutoff)
	if ctx != nil {
		run.SetContext(ctx)
	}
	run.InjectFaults(fs)
	if collect {
		run.EnableCounters()
	}
	in := kernels.AcquireBatchInput(run, a, vs, us)
	walk(k, run, in, groups)
	st := run.Stats()
	var ctr *hsa.Counters
	// Gated on collect, not just the Counters() ok bit: the escaping copy
	// below is heap-allocated whenever its block runs, and the steady-state
	// launch path must stay allocation-free.
	if collect {
		if c, ok := run.Counters(); ok {
			ctr = &c
		}
	}
	in.Release()
	run.Release()
	return st, ctr
}

// resolveWorkers maps a worker knob to an effective pool size: <= 0 selects
// GOMAXPROCS, anything else is taken as given.
func resolveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// forEachLimit runs fn(0), ..., fn(n-1) on a pool of at most workers
// goroutines and returns once every task finished. Task panics are captured
// and, after the join, the panic of the lowest task index is re-raised on
// the caller — keeping failure behavior deterministic for tasks whose
// outcome does not depend on scheduling. workers <= 1 degenerates to a
// plain in-order loop with panics propagating directly.
func forEachLimit(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	panics := make([]any, n)
	var panicked atomic.Bool
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if rec := recover(); rec != nil {
							panics[i] = rec
							panicked.Store(true)
						}
					}()
					fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	if panicked.Load() {
		for i := 0; i < n; i++ {
			if panics[i] != nil {
				panic(panics[i])
			}
		}
	}
}
