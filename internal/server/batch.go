package server

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"spmvtune/internal/core"
	"spmvtune/internal/errdefs"
	"spmvtune/internal/plan"
)

// The batch coalescer fuses concurrent SpMV executions against one stored
// matrix into one guarded multi-vector (SpMM) launch.
// SpMV is DRAM-bound: every single-vector launch re-streams the matrix
// structure, so N concurrent requests against one matrix pay the dominant
// memory cost N times. The fused launch streams the structure once and
// applies it to all B right-hand sides, then demuxes the per-vector
// results — byte-identical to B sequential launches — back to the waiting
// requests.
//
// Coalescing is opt-in via Config.BatchWindow: the first execution for a
// matrix entry opens a batch and arms the window timer; arrivals for the
// same entry join it until either the timer fires (trigger "window") or the
// batch reaches Config.MaxBatch (trigger "size", flushed inline by the
// arrival that filled it). A window flush runs on the timer goroutine, so
// waiters — parked stateless requests and session iterates holding their
// slot and session lock — never depend on another request's goroutine to
// make progress. Server.multiply is the only caller of enqueue and wait.
//
// Error isolation is per request: a vector that fails verification inside
// the fused launch is re-served alone through the single-vector guarded
// chain (core.BatchReport.PerVector), degrading only that request; the
// rest of the batch keeps its clean fused result. Only a whole-batch
// failure (cancellation, invalid plan) fails every waiter.

// batchItem is one execution's share of a pending fused launch. The item
// owns a private copy of its vector and its own result buffer, both from
// scratchPool: a waiter that abandons the batch (client disconnect) must
// not leave the flush reading or writing caller-owned memory. A waiter that
// sees the flush done may take u as its result and give v back
// (Server.multiply).
type batchItem struct {
	v []float64
	u []float64

	done      chan struct{} // closed by the flush after the fields below are set
	err       error
	degraded  bool
	fallbacks int
}

// pendingBatch accumulates same-entry items until a trigger fires. The
// plan, guard options and trace binding are the opening item's: every
// member shares the matrix, so any member's plan serves the batch
// (across a model hot-swap two plans may differ in version — the opener's
// wins, exactly as it would for a multi-vector request body).
type pendingBatch struct {
	e       *matrixEntry
	p       *plan.TuningPlan
	opt     core.GuardOptions
	traceID string
	items   []*batchItem
	timer   *time.Timer
}

// coalescer is the per-server batching state: one pending batch per
// matrix entry, under one mutex (enqueue is O(1) append; all execution
// happens outside the lock). The key is the entry, not its fingerprint: a
// re-upload with other values is a new entry of the same fingerprint, and
// one fused launch must not multiply by two value sets.
type coalescer struct {
	s       *Server
	window  time.Duration
	mu      sync.Mutex
	pending map[*matrixEntry]*pendingBatch
}

func newCoalescer(s *Server, window time.Duration) *coalescer {
	return &coalescer{s: s, window: window, pending: make(map[*matrixEntry]*pendingBatch)}
}

// enqueue adds one execution to the entry's pending batch, opening
// the batch (and arming its window timer) if none is pending. If this
// item fills the batch to MaxBatch it flushes inline on the caller's
// goroutine. The returned item completes via wait.
func (co *coalescer) enqueue(e *matrixEntry, p *plan.TuningPlan, opt core.GuardOptions, traceID string, v []float64) *batchItem {
	it := &batchItem{
		v:    scratchPool.get(len(v)),
		u:    scratchPool.get(e.A.Rows),
		done: make(chan struct{}),
	}
	copy(it.v, v)
	co.mu.Lock()
	b := co.pending[e]
	if b == nil {
		b = &pendingBatch{e: e, p: p, opt: opt, traceID: traceID}
		co.pending[e] = b
		b.timer = time.AfterFunc(co.window, func() { co.flushWindow(b) })
	}
	b.items = append(b.items, it)
	var full *pendingBatch
	if len(b.items) >= co.s.cfg.MaxBatch {
		delete(co.pending, e)
		b.timer.Stop()
		full = b
	}
	co.mu.Unlock()
	if full != nil {
		co.flush(full, &co.s.m.batchFlushSize)
	}
	return it
}

// wait blocks until the item's batch flushed, after which it.u holds the
// result and belongs to the waiter, or ctx expires. An abandoned item still
// executes with its batch — its private buffers make that harmless — the
// waiter just stops caring.
func (co *coalescer) wait(ctx context.Context, it *batchItem) (degraded bool, fallbacks int, err error) {
	select {
	case <-it.done:
		if it.err != nil {
			return false, 0, it.err
		}
		return it.degraded, it.fallbacks, nil
	case <-ctx.Done():
		return false, 0, errdefs.Canceled(ctx.Err())
	}
}

// flushWindow is the timer path: flush the batch unless a size trigger
// already took it (the map entry is the ownership token — whoever removes
// it flushes).
func (co *coalescer) flushWindow(b *pendingBatch) {
	co.mu.Lock()
	if co.pending[b.e] != b {
		co.mu.Unlock()
		return
	}
	delete(co.pending, b.e)
	co.mu.Unlock()
	co.flush(b, &co.s.m.batchFlushWindow)
}

// flush executes one batch as a fused guarded launch (Server.execute, which
// owns the accounting) and demuxes the results. It runs outside the
// coalescer lock, on the timer goroutine (window trigger) or the filling
// request's goroutine (size trigger), and is the only writer of item result
// fields. The execution deadline is the server's own: the batch serves many
// clients, so no single client's deadline may bound it.
func (co *coalescer) flush(b *pendingBatch, trigger *atomic.Int64) {
	s := co.s
	trigger.Add(1)
	n := len(b.items)
	s.m.batchedRequests.Add(int64(n))
	s.m.batchSizeSum.Add(int64(n))
	s.m.batchSizeCount.Add(1)

	defer func() {
		if rec := recover(); rec != nil {
			s.m.panics.Add(1)
			err := errdefs.Panicf("server: batch flush panicked: %v", rec)
			for _, it := range b.items {
				if it.err == nil {
					it.err = err
				}
				select {
				case <-it.done:
				default:
					close(it.done)
				}
			}
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DefaultTimeout)
	defer cancel()

	vs := make([][]float64, n)
	us := make([][]float64, n)
	for i, it := range b.items {
		vs[i] = it.v
		us[i] = it.u
	}
	rep, err := s.execute(ctx, b.e, b.p, b.opt, b.traceID, vs, us)
	for i, it := range b.items {
		if it.err = err; err == nil {
			it.degraded, it.fallbacks = vectorOutcome(rep, i)
		}
		close(it.done)
	}
}
