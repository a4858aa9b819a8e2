package server

import (
	"sync"
	"unsafe"
)

// The request path's buffers are recycled in three classes of one type:
// request bodies (bodyPool), vectors — decoded, batched and result —
// (scratchPool) and response text (respPool). A sync.Pool is emptied by
// every garbage collection, and with spmv_codec's megabyte bodies one ran
// every few requests, so pooled buffers were bought again about as often as
// they were reused. A recycler's free list survives collections and is
// bounded in bytes instead. DESIGN.md "Ownership" has the hand-back rules.

const (
	// maxBody caps the body and response buffers kept: 4 MiB. A larger
	// one — a rare huge body or response — is left to the GC.
	maxBody = 4 << 20
	// maxScratch caps the vectors kept: 2^18 elements, 2 MiB.
	maxScratch = 1 << 18
	// classBytes bounds what each class holds: 8 MiB.
	classBytes = 8 << 20
	// minKeep is the smallest buffer kept, in bytes: one below it costs
	// less to allocate again than to keep.
	minKeep = 1 << 10
	// maxKept bounds the buffers each class holds, so a request of many
	// small vectors cannot make every get and put scan a long free list.
	maxKept = 128
)

var (
	bodyPool    = recycler[byte]{maxCap: maxBody}
	scratchPool = recycler[float64]{maxCap: maxScratch}
	respPool    = recycler[byte]{maxCap: maxBody}
)

// recycledBytes is what the three classes hold (spmvd_recycled_bytes).
func recycledBytes() int {
	return bodyPool.held() + scratchPool.held() + respPool.held()
}

// recycle gives each of vs to scratchPool.
func recycle(vs [][]float64) {
	for _, v := range vs {
		scratchPool.put(v)
	}
}

// recycler keeps buffers of one class for reuse: never one whose capacity
// exceeds maxCap elements or falls below minKeep bytes, never more than
// maxKept of them and never more than classBytes in all. A buffer given to
// put belongs to the recycler: nothing may read or write it after.
type recycler[E byte | float64] struct {
	maxCap int

	mu    sync.Mutex
	free  [][]E // oldest first, each of length 0
	bytes int   // the capacities in free, in bytes
}

// capBytes is the bytes of b's capacity.
func capBytes[E byte | float64](b []E) int {
	var e E
	return cap(b) * int(unsafe.Sizeof(e))
}

// get returns a buffer of length n: the smallest kept one with room for n
// elements but not for 2n, else a new one — a short result does not take
// the buffer a long vector would decode into. Its elements are stale.
func (r *recycler[E]) get(n int) []E {
	r.mu.Lock()
	best := -1
	for i, b := range r.free {
		if n <= cap(b) && cap(b) <= 2*n && (best < 0 || cap(b) < cap(r.free[best])) {
			best = i
		}
	}
	if best >= 0 {
		b := r.take(best)
		r.mu.Unlock()
		return b[:n]
	}
	r.mu.Unlock()
	return make([]E, n)
}

// largest returns the largest buffer kept, empty, or nil when none is: for
// a caller that appends a number of elements it cannot know beforehand.
func (r *recycler[E]) largest() []E {
	r.mu.Lock()
	defer r.mu.Unlock()
	best := -1
	for i, b := range r.free {
		if best < 0 || cap(b) > cap(r.free[best]) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	return r.take(best)
}

// put keeps b for a later get unless its capacity is below minKeep bytes or
// above maxCap. Past maxKept buffers or classBytes it drops the oldest
// buffers kept to make room.
func (r *recycler[E]) put(b []E) {
	if capBytes(b) < minKeep || cap(b) > r.maxCap {
		return
	}
	r.mu.Lock()
	if len(r.free) == maxKept {
		r.take(0)
	}
	r.free = append(r.free, b[:0])
	for r.bytes += capBytes(b); r.bytes > classBytes; {
		r.take(0)
	}
	r.mu.Unlock()
}

// take removes free[i] from the list and returns it; r.mu is held.
func (r *recycler[E]) take(i int) []E {
	b, last := r.free[i], len(r.free)-1
	copy(r.free[i:], r.free[i+1:])
	r.free[last] = nil
	r.free = r.free[:last]
	r.bytes -= capBytes(b)
	return b
}

// held is the bytes the recycler keeps.
func (r *recycler[E]) held() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bytes
}
