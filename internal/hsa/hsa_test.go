package hsa

import (
	"strings"
	"testing"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := SmallConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.NumCUs = 0 },
		func(c *Config) { c.SIMDPerCU = -1 },
		func(c *Config) { c.WavefrontSize = 0 },
		func(c *Config) { c.MaxWorkGroupSize = 0 },
		func(c *Config) { c.MaxWorkGroupSize = 100 }, // not multiple of wavefront
		func(c *Config) { c.ClockHz = 0 },
		func(c *Config) { c.SegmentBytes = 0 },
		func(c *Config) { c.DRAMBytesPerCycle = 0 },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestDeviceFingerprintGolden pins Config.Fingerprint by exact value for the
// two presets. The fingerprint keys the cost cache and the replay memo, so a
// change here silently invalidates every cached cost; if this fails, the
// digest moved — do not regenerate the constants.
func TestDeviceFingerprintGolden(t *testing.T) {
	for _, c := range []struct {
		cfg  Config
		want uint64
	}{
		{DefaultConfig(), 9217027703563729589},
		{SmallConfig(), 15797010979868704808},
	} {
		if got := c.cfg.Fingerprint(); got != c.want {
			t.Errorf("%s: Fingerprint() = %d, want %d", c.cfg.Name, got, c.want)
		}
	}
}

func TestNewRunPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	c := DefaultConfig()
	c.NumCUs = 0
	NewRun(c)
}

func TestAllocRegionsDisjoint(t *testing.T) {
	r := NewRun(DefaultConfig())
	a := r.Alloc(8, 10)
	b := r.Alloc(4, 100)
	// Touch last element of a and first of b: they must hit different
	// segments (no false sharing between regions).
	segA := (a.base + 9*8) / r.cfg.SegmentBytes
	segB := b.base / r.cfg.SegmentBytes
	if segA == segB {
		t.Errorf("regions share a segment: %d", segA)
	}
}

func TestAllocPanics(t *testing.T) {
	r := NewRun(DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Error("expected panic for bad Alloc")
		}
	}()
	r.Alloc(0, 5)
}

func TestCoalescedVsScattered(t *testing.T) {
	cfg := DefaultConfig()
	// Coalesced: 64 consecutive float64 = 8 segments.
	r1 := NewRun(cfg)
	reg := r1.Alloc(8, 1<<20)
	g := r1.BeginWG()
	wf := g.WF()
	wf.Seq(reg, 0, 64)
	g.End()
	s1 := r1.Stats()
	if s1.Transactions != 8 {
		t.Errorf("coalesced f64 load: %d transactions, want 8", s1.Transactions)
	}

	// Scattered: 64 elements spaced one segment apart = 64 transactions.
	r2 := NewRun(cfg)
	reg2 := r2.Alloc(8, 1<<20)
	g2 := r2.BeginWG()
	wf2 := g2.WF()
	idx := make([]int64, 64)
	for i := range idx {
		idx[i] = int64(i * 64) // 64 elements * 8B = 512B apart
	}
	wf2.Gather(reg2, idx)
	g2.End()
	s2 := r2.Stats()
	if s2.Transactions != 64 {
		t.Errorf("scattered load: %d transactions, want 64", s2.Transactions)
	}
	if s2.Cycles <= s1.Cycles {
		t.Errorf("scattered (%f) should cost more than coalesced (%f)", s2.Cycles, s1.Cycles)
	}
}

func TestGatherDedupsSegments(t *testing.T) {
	r := NewRun(DefaultConfig())
	reg := r.Alloc(4, 1000)
	g := r.BeginWG()
	wf := g.WF()
	// All lanes hit the same element: one transaction.
	idx := make([]int64, 64)
	wf.Gather(reg, idx)
	g.End()
	if s := r.Stats(); s.Transactions != 1 {
		t.Errorf("broadcast gather: %d transactions, want 1", s.Transactions)
	}
}

func TestCacheHitsOnReuse(t *testing.T) {
	r := NewRun(DefaultConfig())
	reg := r.Alloc(8, 64)
	g := r.BeginWG()
	wf := g.WF()
	wf.Seq(reg, 0, 8) // cold: 1 miss
	wf.Seq(reg, 0, 8) // warm: 1 hit
	g.End()
	s := r.Stats()
	if s.CacheMisses != 1 || s.CacheHits != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", s.CacheHits, s.CacheMisses)
	}
	if s.DRAMBytes != r.cfg.SegmentBytes {
		t.Errorf("DRAMBytes = %d, want one segment", s.DRAMBytes)
	}
}

func TestCacheEviction(t *testing.T) {
	cfg := SmallConfig() // 16 KiB cache = 256 segments
	r := NewRun(cfg)
	reg := r.Alloc(8, 1<<20)
	g := r.BeginWG()
	wf := g.WF()
	// Touch 2x the cache capacity of distinct segments, then re-touch the
	// first: it must have been evicted (direct-mapped, same index).
	sets := cfg.CacheBytes / cfg.SegmentBytes
	for i := int64(0); i < 2*sets; i++ {
		wf.Seq(reg, i*8, 1)
	}
	missesBefore := r.stats.CacheMisses
	wf.Seq(reg, 0, 1)
	g.End()
	if r.stats.CacheMisses != missesBefore+1 {
		t.Error("expected eviction miss on re-access after capacity overflow")
	}
}

func TestDivergenceChargedPerWavefront(t *testing.T) {
	// Two wavefronts doing the same total lane-work, but one does it with
	// 10 instructions (all lanes busy) and the other with 100 (most lanes
	// idle): the divergent one must cost more.
	cfg := DefaultConfig()
	r1 := NewRun(cfg)
	g1 := r1.BeginWG()
	g1.WF().ALU(10)
	g1.End()

	r2 := NewRun(cfg)
	g2 := r2.BeginWG()
	g2.WF().ALU(100)
	g2.End()

	if r2.Stats().Cycles <= r1.Stats().Cycles {
		t.Error("longer instruction stream must cost more regardless of lane occupancy")
	}
}

func TestWGLaunchOverheadDominatesTinyWGs(t *testing.T) {
	cfg := DefaultConfig()
	// 1000 work-groups each doing 1 ALU op.
	r1 := NewRun(cfg)
	for i := 0; i < 1000; i++ {
		g := r1.BeginWG()
		g.WF().ALU(1)
		g.End()
	}
	many := r1.Stats()

	// 4 work-groups doing 250 ALU ops each (same total work).
	r2 := NewRun(cfg)
	for i := 0; i < 4; i++ {
		g := r2.BeginWG()
		g.WF().ALU(250)
		g.End()
	}
	few := r2.Stats()

	if many.Cycles <= few.Cycles {
		t.Errorf("1000 tiny WGs (%.0f) should cost more than 4 big ones (%.0f)", many.Cycles, few.Cycles)
	}
}

func TestWGCostIsMaxOverPipes(t *testing.T) {
	cfg := DefaultConfig() // 4 SIMD pipes
	r := NewRun(cfg)
	g := r.BeginWG()
	// 4 wavefronts land on 4 distinct pipes; cost = max, not sum.
	for i := 0; i < 4; i++ {
		g.WF().ALU(10)
	}
	g.End()
	s := r.Stats()
	want := cfg.WGLaunchCycles + 10*cfg.ALUCycles + cfg.KernelLaunchCycles
	if s.Cycles != want {
		t.Errorf("cycles = %f, want %f (parallel pipes)", s.Cycles, want)
	}
}

func TestWGsSpreadAcrossCUs(t *testing.T) {
	cfg := DefaultConfig() // 8 CUs
	r := NewRun(cfg)
	for i := 0; i < 8; i++ {
		g := r.BeginWG()
		g.WF().ALU(100)
		g.End()
	}
	s := r.Stats()
	// 8 WGs across 8 CUs run in parallel: makespan is one WG's cost.
	want := cfg.WGLaunchCycles + 100*cfg.ALUCycles + cfg.KernelLaunchCycles
	if s.Cycles != want {
		t.Errorf("8 WGs on 8 CUs: cycles = %f, want %f", s.Cycles, want)
	}
}

func TestBandwidthRoofline(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DRAMBytesPerCycle = 0.001 // starve bandwidth
	r := NewRun(cfg)
	reg := r.Alloc(8, 1<<20)
	g := r.BeginWG()
	wf := g.WF()
	for i := int64(0); i < 100; i++ {
		wf.Seq(reg, i*8, 8)
	}
	g.End()
	s := r.Stats()
	bwCycles := float64(s.DRAMBytes) / cfg.DRAMBytesPerCycle
	if s.Cycles < bwCycles {
		t.Errorf("cycles %f below bandwidth bound %f", s.Cycles, bwCycles)
	}
}

func TestBarrierAndLDSCharged(t *testing.T) {
	r := NewRun(DefaultConfig())
	g := r.BeginWG()
	wf := g.WF()
	wf.LDS(5)
	wf.Barrier()
	g.End()
	s := r.Stats()
	if s.LDSOps != 5 || s.Barriers != 1 {
		t.Errorf("lds=%d barriers=%d", s.LDSOps, s.Barriers)
	}
}

func TestStatsAddAndString(t *testing.T) {
	a := Stats{Cycles: 10, Seconds: 1, ALUOps: 2, Transactions: 3, WorkGroups: 1}
	b := Stats{Cycles: 5, Seconds: 0.5, ALUOps: 1, Transactions: 2, WorkGroups: 4}
	a.Add(b)
	if a.Cycles != 15 || a.Seconds != 1.5 || a.ALUOps != 3 || a.Transactions != 5 || a.WorkGroups != 5 {
		t.Errorf("Add wrong: %+v", a)
	}
	if !strings.Contains(a.String(), "wg=5") {
		t.Errorf("String() = %q", a.String())
	}
}

func TestEmptyOpsAreFree(t *testing.T) {
	r := NewRun(DefaultConfig())
	reg := r.Alloc(8, 8)
	g := r.BeginWG()
	wf := g.WF()
	wf.Gather(reg, nil)
	wf.Seq(reg, 0, 0)
	g.End()
	if s := r.Stats(); s.Transactions != 0 {
		t.Errorf("empty ops charged %d transactions", s.Transactions)
	}
}

func TestDeterminism(t *testing.T) {
	runOnce := func() Stats {
		r := NewRun(DefaultConfig())
		reg := r.Alloc(8, 4096)
		for w := 0; w < 10; w++ {
			g := r.BeginWG()
			for f := 0; f < 4; f++ {
				wf := g.WF()
				wf.Seq(reg, int64(w*256+f*64), 64)
				wf.ALU(7)
			}
			g.End()
		}
		return r.Stats()
	}
	a, b := runOnce(), runOnce()
	if a != b {
		t.Errorf("simulator not deterministic: %+v vs %+v", a, b)
	}
}
