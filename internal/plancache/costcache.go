package plancache

import (
	"sync"
	"sync/atomic"
)

// This file is the bin-signature cost cache backing the exhaustive tuning
// search (core.SearchCtx). Where the plan cache above amortizes whole
// tuning decisions across requests, the cost cache amortizes the individual
// device simulations *inside* one tuning pass: different granularities U
// frequently produce bins covering the same row ranges, and the simulated
// cost of a bin is a pure function of (device config, matrix structure,
// row ranges) — so the kernel-pool timing profile of a bin can be computed
// once and replayed for every later occurrence, within a search and across
// searches of structurally identical matrices.
//
// The cache stores values, never decisions: a hit replays the exact
// KernelTimes the simulations would have produced, so search labels are
// byte-identical with the cache on, off, hot or cold.

// CostKey is the 128-bit content signature of one cost-cache entry —
// a collision-resistant digest of (device fingerprint, matrix structural
// fingerprint, the bin's row ranges). Callers build it with a cryptographic
// hash; the cache treats it as an opaque value.
type CostKey [2]uint64

// CostCacheOptions configures a CostCache. The zero value selects defaults.
type CostCacheOptions struct {
	// Capacity bounds the total resident entries across all shards;
	// <= 0 selects 32768 (an entry is ~100 bytes: one float64 per pool
	// kernel plus bookkeeping). Eviction is FIFO per shard — eviction
	// policy affects only the hit rate, never a search result.
	Capacity int
	// Shards is the number of independent lock domains; <= 0 selects 16.
	Shards int
}

func (o CostCacheOptions) withDefaults() CostCacheOptions {
	if o.Capacity <= 0 {
		o.Capacity = 32768
	}
	if o.Shards <= 0 {
		o.Shards = 16
	}
	return o
}

// CostStats is a point-in-time snapshot of the cost-cache counters.
type CostStats struct {
	Hits      int64 // bin cells whose whole kernel-pool profile was replayed
	Misses    int64 // bin cells that had to simulate (then filled the cache)
	Pruned    int64 // individual simulations skipped or cut short by the prune
	Entries   int64 // resident entries
	Evictions int64 // FIFO capacity evictions
}

type costEntry struct {
	times  []float64 // simulated seconds per kernel ID (lower bound where pruned)
	pruned uint64    // bitmask over kernel IDs whose slot holds a lower bound (see core.BinLabel.Pruned)
}

// Memo is a sharded, size-bounded map from content signatures to values
// that are pure functions of their key — the storage under the cost cache
// and under core's launch-replay memo. All methods are safe for concurrent
// use; racing writers of one key store the same bytes by construction, so
// lookups are reproducible at any worker count. Eviction is FIFO per shard:
// the policy affects only the hit rate, never a result. Stored values are
// never mutated (Put replaces), so a value returned by Get may be read
// without the lock.
type Memo[V any] struct {
	shards             []*memoShard[V]
	entries, evictions atomic.Int64
}

type memoShard[V any] struct {
	mu   sync.Mutex
	m    map[CostKey]V
	ring []CostKey // FIFO eviction order
	next int
	cap  int
}

// NewMemo builds a memo holding at most capacity entries over shards
// independent lock domains (both floored at 1; shards capped at capacity).
func NewMemo[V any](capacity, shards int) *Memo[V] {
	capacity = max(capacity, 1)
	shards = min(max(shards, 1), capacity)
	c := &Memo[V]{}
	for i := 0; i < shards; i++ {
		c.shards = append(c.shards, &memoShard[V]{m: make(map[CostKey]V), cap: capacity / shards})
	}
	return c
}

func (c *Memo[V]) shardFor(k CostKey) *memoShard[V] {
	return c.shards[k[0]%uint64(len(c.shards))]
}

// Get returns the value stored under k.
func (c *Memo[V]) Get(k CostKey) (V, bool) {
	s := c.shardFor(k)
	s.mu.Lock()
	v, ok := s.m[k]
	s.mu.Unlock()
	return v, ok
}

// Put stores v under k. When the shard is full the oldest entry is evicted
// (FIFO); a resident key keeps its place in the eviction order.
func (c *Memo[V]) Put(k CostKey, v V) {
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[k]; !ok {
		if len(s.m) >= s.cap { // ring is full exactly when the map is: evict FIFO
			delete(s.m, s.ring[s.next])
			s.ring[s.next] = k
			s.next = (s.next + 1) % s.cap
			c.evictions.Add(1)
			c.entries.Add(-1)
		} else {
			s.ring = append(s.ring, k)
		}
		c.entries.Add(1)
	}
	s.m[k] = v
}

// Len returns the number of resident entries.
func (c *Memo[V]) Len() int { return int(c.entries.Load()) }

// Purge drops every resident entry.
func (c *Memo[V]) Purge() {
	for _, s := range c.shards {
		s.mu.Lock()
		c.entries.Add(int64(-len(s.m)))
		s.m = make(map[CostKey]V)
		s.ring = s.ring[:0]
		s.next = 0
		s.mu.Unlock()
	}
}

// CostCache is a Memo from bin signatures to kernel-pool timing profiles,
// plus the counters of the search's shared-computation layer.
type CostCache struct {
	memo *Memo[costEntry]

	hits, misses, pruned atomic.Int64
}

// NewCostCache builds a cost cache with the given options.
func NewCostCache(opts CostCacheOptions) *CostCache {
	opts = opts.withDefaults()
	return &CostCache{memo: NewMemo[costEntry](opts.Capacity, opts.Shards)}
}

// Get returns the cached kernel-pool profile for k by copying it into
// times (which must be at least as long as the stored profile), plus the
// pruned-kernel bitmask. Unless bounds is set, an entry with pruned slots
// is a miss, for a caller that needs every full simulated time (it then
// Puts the exact profile over it). A miss leaves times untouched.
func (c *CostCache) Get(k CostKey, times []float64, bounds bool) (pruned uint64, ok bool) {
	e, ok := c.memo.Get(k)
	if !ok || (e.pruned != 0 && !bounds) {
		c.misses.Add(1)
		return 0, false
	}
	copy(times, e.times)
	c.hits.Add(1)
	return e.pruned, true
}

// Put stores the kernel-pool profile for k, copying times.
func (c *CostCache) Put(k CostKey, times []float64, pruned uint64) {
	c.memo.Put(k, costEntry{times: append([]float64(nil), times...), pruned: pruned})
}

// AddPruned counts n simulations the search's prune skipped or cut short.
// The counter lives here so one stats snapshot covers the whole shared-
// computation layer (memoization and pruning both skip simulations).
func (c *CostCache) AddPruned(n int64) { c.pruned.Add(n) }

// Stats returns a snapshot of the counters.
func (c *CostCache) Stats() CostStats {
	return CostStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Pruned:    c.pruned.Load(),
		Entries:   c.memo.entries.Load(),
		Evictions: c.memo.evictions.Load(),
	}
}

// Len returns the number of resident entries.
func (c *CostCache) Len() int { return c.memo.Len() }

// PurgeCost drops every resident entry, preserving counters.
func (c *CostCache) PurgeCost() { c.memo.Purge() }
