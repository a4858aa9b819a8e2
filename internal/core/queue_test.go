package core

import (
	"context"
	"testing"

	"spmvtune/internal/binning"
	"spmvtune/internal/hsa"
	"spmvtune/internal/matgen"
	"spmvtune/internal/sparse"
)

// Queued dispatch is a cost rule over the sequential run's stats: same
// device work, one full launch synchronization plus a packet write per
// further bin.
func TestQueuedMatchesSequentialResults(t *testing.T) {
	a := matgen.Mixed(1200, 1200, 40, []int{2, 60, 200}, 3)
	b := binning.Coarse(a, 10, binning.DefaultMaxBins)
	kb := map[int]int{}
	for _, id := range b.NonEmpty() {
		kb[id] = 3 // subvector8 everywhere; correctness is kernel-agnostic
	}
	v := randVec(a.Cols, 5)
	want := make([]float64, a.Rows)
	a.MulVec(v, want)

	dev := hsa.DefaultConfig()
	u := make([]float64, a.Rows)
	seq, err := SimulateBinned(context.Background(), dev, a, v, u, b, kb)
	if err != nil {
		t.Fatal(err)
	}
	if i := sparse.FirstVecDiff(want, u, 1e-9); i >= 0 {
		t.Fatalf("result wrong at row %d", i)
	}
	nBins := len(b.NonEmpty())
	if nBins < 2 {
		t.Fatalf("test needs multiple bins, got %d", nBins)
	}
	queued := QueuedDispatch(dev, seq, nBins)
	// Same device work, cheaper dispatch.
	wantWork := seq
	wantWork.Cycles, wantWork.Seconds = queued.Cycles, queued.Seconds
	if queued != wantWork {
		t.Error("queued dispatch changed the device work")
	}
	savedCycles := seq.Cycles - queued.Cycles
	wantSaved := float64(nBins-1) * (dev.KernelLaunchCycles - dev.QueueDispatchCycles)
	if diff := savedCycles - wantSaved; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("queue saved %.0f cycles, want %.0f (bins=%d)", savedCycles, wantSaved, nBins)
	}
	if queued.Seconds != queued.Cycles/dev.ClockHz {
		t.Errorf("queued seconds %g inconsistent with %g cycles", queued.Seconds, queued.Cycles)
	}
	// A single launch has nothing to queue behind: the rule is the identity.
	one := hsa.Stats{Cycles: 100 + dev.KernelLaunchCycles, ExecCycles: 100, Seconds: (100 + dev.KernelLaunchCycles) / dev.ClockHz}
	if got := QueuedDispatch(dev, one, 1); got != one {
		t.Errorf("one queued launch costs %+v, want the sequential %+v", got, one)
	}
}

// The loop the rule is applied to rejects what queue.go's own copy of it
// used to reject.
func TestQueuedErrors(t *testing.T) {
	a := matgen.Banded(100, 3, 1)
	b := binning.Coarse(a, 10, 16)
	v := make([]float64, a.Cols)
	u := make([]float64, a.Rows)
	if _, err := SimulateBinned(context.Background(), hsa.DefaultConfig(), a, v, u, b, map[int]int{}); err == nil {
		t.Error("missing assignment accepted")
	}
	bad := map[int]int{}
	for _, id := range b.NonEmpty() {
		bad[id] = -1
	}
	if _, err := SimulateBinned(context.Background(), hsa.DefaultConfig(), a, v, u, b, bad); err == nil {
		t.Error("bad kernel id accepted")
	}
}

func TestQueuedEmptyMatrix(t *testing.T) {
	a := &sparse.CSR{Rows: 0, Cols: 0, RowPtr: []int64{0}}
	b := binning.Single(a)
	st, err := SimulateBinned(context.Background(), hsa.DefaultConfig(), a, nil, nil, b, map[int]int{})
	if err != nil {
		t.Fatal(err)
	}
	if q := QueuedDispatch(hsa.DefaultConfig(), st, len(b.NonEmpty())); q.Cycles != 0 {
		t.Errorf("empty matrix cost %v cycles", q.Cycles)
	}
}
