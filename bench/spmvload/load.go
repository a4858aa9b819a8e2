package main

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// openOp performs one op for client c (0-based) and reports whether its
// verified response arrived. seq numbers the ops of the whole run, so the
// op's input is a function of the seed and its position alone.
type openOp func(ctx context.Context, c, seq int) error

// closedOp is openOp for a closed loop, where a client may have
// housekeeping to do between two ops (replacing a finished solver session):
// prep is how long the call spent on it before the op proper began.
type closedOp func(ctx context.Context, c, seq int) (prep time.Duration, err error)

// pass is the outcome of one timed stretch of load.
type pass struct {
	samples    []sample
	elapsed    time.Duration // from the start until the last op was done
	backlogEnd int           // open loop: ops due but not yet sent when the stretch closed
}

// jitterShare: an op's due time is jittered by 1/jitterShare of the period.
const jitterShare = 4

// schedule draws the open loop's due times: op k falls due at a seeded
// uniform instant inside the first quarter of the k-th period of 1/rate.
// The loop is open — the times are fixed before the first op is sent and do
// not wait for the daemon — so a daemon that falls behind queues ops and is
// charged the wait.
//
// Poisson arrivals were tried first, then jitter over the whole period.
// At a quarter of capacity both let a few per cent of ops fall due while
// their predecessor is still in service, and that share sat right at the
// 95th percentile: p95 moved between "an op alone" and "an op that shared
// the daemon" from run to run, by 20–55 % of its median over ten seeds with
// the daemon unchanged. With a quarter period of jitter two ops overlap
// only when the daemon is slow enough for the gap (30 ms at 25 ops/s) to
// close, which is what the workload is there to show.
func schedule(seed int64, rate float64, window time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	period := time.Duration(float64(time.Second) / rate)
	n := int(window / period)
	due := make([]time.Duration, n)
	for k := range due {
		due[k] = time.Duration(k)*period + time.Duration(rng.Int63n(int64(period/jitterShare)))
	}
	return due
}

// runClosed drives clients closed loops for the window: each client sends
// its next op the moment the previous one completes, so an op is due when
// its predecessor finished (plus any housekeeping the op reports as prep,
// which is inside the window but part of no op). Ops in flight when the
// window closes complete and are kept; none is started after it.
func runClosed(ctx context.Context, clients int, window time.Duration, seq *atomic.Int64, op closedOp) (pass, error) {
	var p pass
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			due := time.Duration(0)
			for due < window && ctx.Err() == nil {
				n := int(seq.Add(1) - 1)
				sent := time.Since(start)
				prep, err := op(ctx, c, n)
				done := time.Since(start)
				mu.Lock()
				p.samples = append(p.samples, sample{due: due + prep, sent: sent + prep, done: done, ok: err == nil})
				mu.Unlock()
				due = done
			}
		}(c)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	return p, ctx.Err()
}

// runOpen drives an open loop: op i falls due at due[i] whatever the
// daemon is doing, and conns senders take due ops in order. Latency runs
// from the due time, so the wait a stall imposes on later ops is counted;
// sent − due is how late the generator ran. Every due op is sent, even
// after the window closes — dropping the backlog would hide a stall.
func runOpen(ctx context.Context, conns int, window time.Duration, due []time.Duration, seq *atomic.Int64, op openOp) (pass, error) {
	p := pass{samples: make([]sample, len(due))}
	// Sized to the number of sends: the dispatcher never blocks on a slow
	// daemon, which is what makes the loop open.
	ready := make(chan int, len(due))
	var sentCount atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	base := int(seq.Add(int64(len(due)))) - len(due)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range ready {
				sent := time.Since(start)
				sentCount.Add(1)
				err := op(ctx, c, base+i)
				p.samples[i] = sample{due: due[i], sent: sent, done: time.Since(start), ok: err == nil}
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(ready)
		for i, d := range due {
			select {
			case <-time.After(time.Until(start.Add(d))):
			case <-ctx.Done():
				return
			}
			ready <- i
		}
	}()
	select {
	case <-time.After(time.Until(start.Add(window))):
	case <-ctx.Done():
	}
	dueByNow := sort.Search(len(due), func(i int) bool { return due[i] > time.Since(start) })
	p.backlogEnd = dueByNow - int(sentCount.Load())
	wg.Wait()
	p.elapsed = time.Since(start)
	return p, ctx.Err()
}
