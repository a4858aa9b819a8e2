package core

import (
	"context"
	"errors"
	"testing"

	"spmvtune/internal/binning"
	"spmvtune/internal/errdefs"
	"spmvtune/internal/matgen"
	"spmvtune/internal/sparse"
)

func isCanceled(err error) bool {
	return errors.Is(err, errdefs.ErrCanceled) && errors.Is(err, context.Canceled)
}

// Both verbs and the unguarded bin loop must refuse a canceled context with
// the typed cancellation error. (The native host path's cancellation is
// cpu.MulVecBinnedCtx's, tested in internal/cpu.)
func TestDispatchersHonorCancellation(t *testing.T) {
	fw := guardFramework(t)
	a, v, _ := guardMatrix()
	p, err := fw.Plan(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	d, b := fw.Decide(a)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	u := make([]float64, a.Rows)
	if _, err := fw.Plan(ctx, a); !isCanceled(err) {
		t.Errorf("Plan: error %v does not match cancellation sentinels", err)
	}
	if _, err := fw.ExecutePlanOpts(ctx, p, a, v, u, DefaultGuardOptions()); !isCanceled(err) {
		t.Errorf("ExecutePlanOpts: error %v does not match cancellation sentinels", err)
	}
	if _, err := SimulateBinned(ctx, fw.Cfg.Device, a, v, u, b, d.KernelByBin); !isCanceled(err) {
		t.Errorf("SimulateBinned: error %v does not match cancellation sentinels", err)
	}
}

// delayedCancelCtx reports healthy for its first n Err() polls, then
// canceled — deterministic mid-launch cancellation without timing races.
type delayedCancelCtx struct {
	context.Context
	polls int
}

func (c *delayedCancelCtx) Err() error {
	if c.polls > 0 {
		c.polls--
		return nil
	}
	return context.Canceled
}

// cancelAtEveryPoll runs op under a context that turns canceled at its k-th
// Err() poll, for k = 0, 1, 2, ... until op first completes: every earlier k
// must abort with the typed cancellation error. It returns the number of
// polls a complete run makes.
func cancelAtEveryPoll(t *testing.T, name string, op func(ctx context.Context) error) int {
	t.Helper()
	for k := 0; k < 1000; k++ {
		err := op(&delayedCancelCtx{Context: context.Background(), polls: k})
		if err == nil {
			return k
		}
		if !isCanceled(err) {
			t.Fatalf("%s: cancel at poll %d: error %v does not match cancellation sentinels", name, k, err)
		}
	}
	t.Fatalf("%s: never completed", name)
	return 0
}

// A cancellation that lands mid-launch must abort through the simulator's
// work-group poll (recovered by SimulateKernelCtx), not run the kernel to
// completion first.
func TestSimulateKernelCtxMidLaunchCancel(t *testing.T) {
	fw := guardFramework(t)
	// Enough rows for well over cancelCheckStride work-group dispatches
	// with the serial kernel; the single healthy poll is consumed by the
	// dispatcher's pre-launch check, so the abort must come from inside
	// the running launch.
	a := matgen.RoadNetwork(30000, 3)
	v := randVec(a.Cols, 21)
	ctx := &delayedCancelCtx{Context: context.Background(), polls: 1}
	u := make([]float64, a.Rows)
	_, err := SimulateBinned(ctx, fw.Cfg.Device, a, v, u, binning.Single(a), map[int]int{0: 0})
	if !isCanceled(err) {
		t.Errorf("mid-launch cancel: %v", err)
	}
}

// Wherever the cancellation lands — before the first bin, between two bins,
// inside a running launch — both executors abort with the typed error and
// neither runs to completion first. Every bin runs Kernel-Vector (a
// wavefront per row), so each launch dispatches hundreds of work-groups and
// a complete run polls at every one of those places.
func TestCancellationBetweenBinsAndMidLaunch(t *testing.T) {
	const vector = 8
	fw := guardFramework(t)
	a := matgen.Mixed(1800, 1800, 600, []int{2, 40, 300}, 9)
	v := randVec(a.Cols, 4)
	u := make([]float64, a.Rows)
	p, err := fw.Plan(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	bins := len(p.Bins)
	if bins < 2 {
		t.Fatalf("test needs a multi-bin plan, got %d bins", bins)
	}
	for i := range p.Bins {
		p.Bins[i].Kernel, p.Bins[i].KernelName = vector, "vector"
	}
	bn, err := p.Rebin(a)
	if err != nil {
		t.Fatal(err)
	}

	polls := cancelAtEveryPoll(t, "SimulateBinned", func(ctx context.Context) error {
		_, err := SimulateBinned(ctx, fw.Cfg.Device, a, v, u, bn, p.KernelByBin())
		return err
	})
	// One poll before each bin; anything beyond that came from inside launches.
	if polls <= bins {
		t.Errorf("SimulateBinned polled %d times over %d bins: no mid-launch poll exercised", polls, bins)
	}

	// The guarded engine, cold each time so every launch simulates (a replayed
	// launch has no work-groups to poll between).
	polls = cancelAtEveryPoll(t, "ExecutePlanOpts", func(ctx context.Context) error {
		_, err := NewFramework(fw.Cfg, fw.Model()).ExecutePlanOpts(ctx, p, a, v, u, DefaultGuardOptions())
		return err
	})
	// One poll on entry and one before each bin's launch.
	if polls <= 1+bins {
		t.Errorf("ExecutePlanOpts polled %d times over %d bins: no mid-launch poll exercised", polls, bins)
	}
}

func TestCtxVariantsNilContext(t *testing.T) {
	fw := guardFramework(t)
	a, v, want := guardMatrix()
	d, b := fw.Decide(a)
	u := make([]float64, a.Rows)
	if _, err := SimulateBinned(nil, fw.Cfg.Device, a, v, u, b, d.KernelByBin); err != nil {
		t.Fatalf("SimulateBinned(nil): %v", err)
	}
	if i := sparse.FirstVecDiff(want, u, 1e-9); i >= 0 {
		t.Errorf("SimulateBinned(nil) wrong at row %d", i)
	}
	p, err := fw.Plan(nil, a)
	if err != nil {
		t.Fatalf("Plan(nil): %v", err)
	}
	ug := make([]float64, a.Rows)
	if _, err := fw.ExecutePlanOpts(nil, p, a, v, ug, DefaultGuardOptions()); err != nil {
		t.Fatalf("ExecutePlanOpts(nil): %v", err)
	}
	if i := sparse.FirstVecDiff(want, ug, 1e-9); i >= 0 {
		t.Errorf("ExecutePlanOpts(nil) wrong at row %d", i)
	}
}
