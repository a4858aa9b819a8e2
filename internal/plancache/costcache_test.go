package plancache

import (
	"sync"
	"testing"
)

func costKey(i uint64) CostKey { return CostKey{i, i * 2654435761} }

func TestCostCacheGetPut(t *testing.T) {
	c := NewCostCache(CostCacheOptions{Capacity: 64, Shards: 4})
	times := []float64{1, 2, 3}
	out := make([]float64, 3)
	if _, ok := c.Get(costKey(1), out, true); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(costKey(1), times, 0b101)
	mask, ok := c.Get(costKey(1), out, true)
	if !ok {
		t.Fatal("miss after Put")
	}
	if mask != 0b101 {
		t.Fatalf("pruned mask = %b, want 101", mask)
	}
	for i, v := range times {
		if out[i] != v {
			t.Fatalf("out[%d] = %v, want %v", i, out[i], v)
		}
	}
	// The stored profile must be a copy, not an alias.
	times[0] = 99
	if _, _ = c.Get(costKey(1), out, true); out[0] != 1 {
		t.Fatalf("cache aliases caller slice: out[0] = %v", out[0])
	}
	// A caller that needs exact times misses on an entry holding bounds,
	// and hits once an exact profile replaced it.
	clear(out)
	if _, ok := c.Get(costKey(1), out, false); ok || out[0] != 0 {
		t.Fatalf("exact Get replayed a bound-holding entry (out = %v)", out)
	}
	c.Put(costKey(1), times, 0)
	if mask, ok := c.Get(costKey(1), out, false); !ok || mask != 0 || out[0] != 99 {
		t.Fatalf("exact Get after exact Put: mask %b ok %v out %v", mask, ok, out)
	}
	st := c.Stats()
	if st.Hits != 3 || st.Misses != 2 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 3 hits / 2 misses / 1 entry", st)
	}
}

func TestCostCacheEviction(t *testing.T) {
	// 1 shard of capacity 4: inserting 6 distinct keys must evict the two
	// oldest, keep the cache at capacity, and keep every surviving entry
	// readable.
	c := NewCostCache(CostCacheOptions{Capacity: 4, Shards: 1})
	for i := uint64(0); i < 6; i++ {
		c.Put(costKey(i), []float64{float64(i)}, 0)
	}
	if c.Len() != 4 {
		t.Fatalf("Len = %d, want 4", c.Len())
	}
	st := c.Stats()
	if st.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", st.Evictions)
	}
	out := make([]float64, 1)
	for i := uint64(0); i < 2; i++ {
		if _, ok := c.Get(costKey(i), out, true); ok {
			t.Fatalf("key %d survived FIFO eviction", i)
		}
	}
	for i := uint64(2); i < 6; i++ {
		if _, ok := c.Get(costKey(i), out, true); !ok {
			t.Fatalf("key %d evicted out of FIFO order", i)
		}
		if out[0] != float64(i) {
			t.Fatalf("key %d holds %v", i, out[0])
		}
	}
}

func TestCostCachePurge(t *testing.T) {
	c := NewCostCache(CostCacheOptions{Capacity: 8, Shards: 2})
	for i := uint64(0); i < 8; i++ {
		c.Put(costKey(i), []float64{1}, 0)
	}
	c.PurgeCost()
	if c.Len() != 0 {
		t.Fatalf("Len after purge = %d", c.Len())
	}
	// The cache must keep working after a purge.
	c.Put(costKey(1), []float64{7}, 0)
	out := make([]float64, 1)
	if _, ok := c.Get(costKey(1), out, true); !ok || out[0] != 7 {
		t.Fatalf("post-purge Get = (%v, ok=%v)", out[0], ok)
	}
}

func TestCostCacheConcurrent(t *testing.T) {
	// Racing writers of the same key store identical bytes by contract;
	// here we just hammer the shards from many goroutines under -race.
	c := NewCostCache(CostCacheOptions{Capacity: 128, Shards: 4})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]float64, 2)
			for i := uint64(0); i < 200; i++ {
				k := costKey(i % 50)
				if _, ok := c.Get(k, out, true); !ok {
					c.Put(k, []float64{float64(i % 50), 1}, uint64(i%50)&3)
				}
			}
		}()
	}
	wg.Wait()
	c.AddPruned(5)
	if st := c.Stats(); st.Pruned != 5 {
		t.Fatalf("pruned = %d, want 5", st.Pruned)
	}
}
