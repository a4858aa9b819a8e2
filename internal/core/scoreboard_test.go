package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"spmvtune/internal/c50"
	"spmvtune/internal/kernels"
	"spmvtune/internal/matgen"
	"spmvtune/internal/plancache"
)

// scoreCase is one corpus matrix served once, cold, on a fresh Framework:
// its plan, the modeled device stats and the device counters the paper's
// analysis keys on.
type scoreCase struct {
	Name, Family     string
	Rows, Cols, NNZ  int
	U, Bins          int
	Cycles, Seconds  float64
	ActiveLaneRatio  float64
	LoadImbalance    float64
	MemInstrs        int64
	LDSReads         int64
	LDSWrites        int64
	LDSBankConflicts int64
	BarrierWaits     int64
	Degraded         bool
}

// scoreSearch is the tuning search over the whole corpus: one legacy pass
// (no cost cache, no pruner) against the cached+pruned pool and synthesized
// passes. Sims counts the kernel launches a pass actually simulated.
type scoreSearch struct {
	LegacySims                          int64
	PoolHits, PoolMisses, PoolPruned    int64
	PoolSims                            int64
	SynthHits, SynthMisses, SynthPruned int64
	SynthSims                           int64
	// Best-achievable modeled seconds (the minimum per-U sum), geomean over
	// the corpus, and their synth/pool ratio.
	PoolGeoSeconds, SynthGeoSeconds, CycleRatio float64
	// SynthWins counts best-U bins won by a kernel outside the pool.
	SynthWins int
}

// scoreBatch is every corpus matrix served B times through the
// single-vector path, then once as one fused B-vector launch.
type scoreBatch struct {
	Vectors                        int
	UnbatchedCycles, BatchedCycles float64
	Identical                      bool // fused outputs bit-equal the single-vector ones
	Isolated                       int
}

// scoreboard is every deterministic number the tuner's modeled-cycle
// scoreboard reports.
type scoreboard struct {
	Cases  []scoreCase
	Search scoreSearch
	Batch  scoreBatch
}

// literal renders s as the Go literal that, pasted over
// modeledScoreboardGolden, makes the test pass.
func (s scoreboard) literal() string {
	var b strings.Builder
	b.WriteString("scoreboard{\n\tCases: []scoreCase{\n")
	for _, c := range s.Cases {
		fmt.Fprintf(&b, "\t\t%s,\n", strings.TrimPrefix(fmt.Sprintf("%#v", c), "core.scoreCase"))
	}
	fmt.Fprintf(&b, "\t},\n\tSearch: %s,\n\tBatch:  %s,\n}",
		strings.TrimPrefix(fmt.Sprintf("%#v", s.Search), "core."),
		strings.TrimPrefix(fmt.Sprintf("%#v", s.Batch), "core."))
	return b.String()
}

// modeledScoreboardGolden pins the scoreboard of the default configuration,
// a model bootstrap-trained on an 8-matrix corpus (seed 42) and a 10-matrix
// measured corpus (seed 42). Every value is compared exactly: a change that
// moves one modeled cycle, one pruned cell or one output bit edits this
// literal in its own diff.
var modeledScoreboardGolden = scoreboard{
	Cases: []scoreCase{
		{Name: "blockfem-0000", Family: "blockfem", Rows: 578, Cols: 578, NNZ: 39377, U: 1000, Bins: 1, Cycles: 13784, Seconds: 1.9144444444444445e-05, ActiveLaneRatio: 0.7308434466019418, LoadImbalance: 1.1255346449957229, MemInstrs: 2575, LDSReads: 1065, LDSWrites: 1917, LDSBankConflicts: 5538, BarrierWaits: 426, Degraded: false},
		{Name: "powerlaw-0001", Family: "powerlaw", Rows: 1445, Cols: 1445, NNZ: 3160, U: 1000, Bins: 2, Cycles: 15376, Seconds: 2.1355555555555557e-05, ActiveLaneRatio: 0.0538476738934056, LoadImbalance: 5.48302121749126, MemInstrs: 4428, LDSReads: 3893, LDSWrites: 6117, LDSBankConflicts: 53399, BarrierWaits: 1112, Degraded: false},
		{Name: "mixed-0002", Family: "mixed", Rows: 1135, Cols: 1135, NNZ: 96679, U: 1000, Bins: 2, Cycles: 47740, Seconds: 6.630555555555556e-05, ActiveLaneRatio: 0.47637814375905607, LoadImbalance: 5.194489130883142, MemInstrs: 9662, LDSReads: 3165, LDSWrites: 6485, LDSBankConflicts: 18845, BarrierWaits: 1660, Degraded: false},
		{Name: "road-0003", Family: "road", Rows: 1814, Cols: 1814, NNZ: 4270, U: 1000, Bins: 2, Cycles: 5632, Seconds: 7.822222222222222e-06, ActiveLaneRatio: 0.5405711206896552, LoadImbalance: 1.0628172588832487, MemInstrs: 580, LDSReads: 174, LDSWrites: 406, LDSBankConflicts: 232, BarrierWaits: 116, Degraded: false},
		{Name: "powerlaw-0004", Family: "powerlaw", Rows: 528, Cols: 528, NNZ: 3792, U: 1000, Bins: 1, Cycles: 6544, Seconds: 9.088888888888888e-06, ActiveLaneRatio: 0.21884735202492211, LoadImbalance: 2.566650740563784, MemInstrs: 963, LDSReads: 455, LDSWrites: 819, LDSBankConflicts: 2366, BarrierWaits: 182, Degraded: false},
		{Name: "blockfem-0005", Family: "blockfem", Rows: 915, Cols: 915, NNZ: 90898, U: 1000, Bins: 1, Cycles: 37088, Seconds: 5.151111111111111e-05, ActiveLaneRatio: 0.7909930848140685, LoadImbalance: 1.197160830221684, MemInstrs: 5459, LDSReads: 1356, LDSWrites: 3164, LDSBankConflicts: 1808, BarrierWaits: 904, Degraded: false},
		{Name: "powerlaw-0006", Family: "powerlaw", Rows: 770, Cols: 770, NNZ: 4115, U: 1000, Bins: 1, Cycles: 6796, Seconds: 9.438888888888888e-06, ActiveLaneRatio: 0.19578848497156784, LoadImbalance: 1.6789855072463769, MemInstrs: 1231, LDSReads: 312, LDSWrites: 728, LDSBankConflicts: 416, BarrierWaits: 208, Degraded: false},
		{Name: "blockfem-0007", Family: "blockfem", Rows: 910, Cols: 910, NNZ: 24375, U: 1000, Bins: 1, Cycles: 10416, Seconds: 1.4466666666666667e-05, ActiveLaneRatio: 0.7591475474683544, LoadImbalance: 1.1068901303538174, MemInstrs: 1580, LDSReads: 429, LDSWrites: 1001, LDSBankConflicts: 572, BarrierWaits: 286, Degraded: false},
		{Name: "blockfem-0008", Family: "blockfem", Rows: 944, Cols: 944, NNZ: 73905, U: 1000, Bins: 1, Cycles: 31180, Seconds: 4.330555555555556e-05, ActiveLaneRatio: 0.7824332389518099, LoadImbalance: 1.2002830856334041, MemInstrs: 4503, LDSReads: 1140, LDSWrites: 2660, LDSBankConflicts: 1520, BarrierWaits: 760, Degraded: false},
		{Name: "road-0009", Family: "road", Rows: 1922, Cols: 1922, NNZ: 4539, U: 1000, Bins: 1, Cycles: 4060, Seconds: 5.638888888888889e-06, ActiveLaneRatio: 0.5484194810543658, LoadImbalance: 1.1062057476051645, MemInstrs: 607, LDSReads: 183, LDSWrites: 427, LDSBankConflicts: 244, BarrierWaits: 122, Degraded: false},
	},
	Search: scoreSearch{LegacySims: 4059, PoolHits: 111, PoolMisses: 340, PoolPruned: 2027, PoolSims: 1033, SynthHits: 111, SynthMisses: 340, SynthPruned: 8358, SynthSims: 3882, PoolGeoSeconds: 1.4071723465565624e-05, SynthGeoSeconds: 1.350180487095182e-05, CycleRatio: 0.9594990197179166, SynthWins: 4},
	Batch:  scoreBatch{Vectors: 8, UnbatchedCycles: 1.428928e+06, BatchedCycles: 414652, Identical: true, Isolated: 0},
}

func TestModeledScoreboardGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine and deterministic: the race detector finds nothing here and makes it 20x slower")
	}
	ctx := context.Background()
	cfg := DefaultConfig()
	td := NewTrainingData(cfg)
	for _, cm := range matgen.Corpus(matgen.CorpusOptions{N: 8, MinRows: 256, MaxRows: 1024, Seed: 42}) {
		td.AddMatrix(cfg, cm.A)
	}
	fw := NewFramework(cfg, TrainModel(td, cfg, c50.DefaultOptions()))
	mats := matgen.Corpus(matgen.CorpusOptions{N: 10, MinRows: 512, MaxRows: 2048, Seed: 42})

	var got scoreboard
	opt := DefaultGuardOptions()
	opt.Counters = true
	for _, cm := range mats {
		a := cm.A
		p, err := fw.Plan(ctx, a)
		if err != nil {
			t.Fatalf("%s: plan: %v", cm.Name, err)
		}
		v := make([]float64, a.Cols)
		for i := range v {
			v[i] = 1
		}
		u := make([]float64, a.Rows)
		// A fresh Framework's replay memo is cold: the first execution
		// simulates every launch, the second replays them.
		fresh := NewFramework(fw.Cfg, fw.Model())
		cold, err := fresh.ExecutePlanOpts(ctx, p, a, v, u, opt)
		if err != nil {
			t.Fatalf("%s: cold: %v", cm.Name, err)
		}
		warm, err := fresh.ExecutePlanOpts(ctx, p, a, v, u, opt)
		if err != nil {
			t.Fatalf("%s: warm: %v", cm.Name, err)
		}
		if warm.Stats.Cycles != cold.Stats.Cycles {
			t.Errorf("%s: replayed cycles %v, simulated %v", cm.Name, warm.Stats.Cycles, cold.Stats.Cycles)
		}
		ctr := cold.Counters
		got.Cases = append(got.Cases, scoreCase{
			Name: cm.Name, Family: cm.Family,
			Rows: a.Rows, Cols: a.Cols, NNZ: a.NNZ(),
			U: p.U, Bins: len(p.Bins),
			Cycles: cold.Stats.Cycles, Seconds: cold.Stats.Seconds,
			ActiveLaneRatio:  ctr.ActiveLaneRatio(),
			LoadImbalance:    ctr.LoadImbalance(),
			MemInstrs:        ctr.MemInstrs,
			LDSReads:         ctr.LDSReads,
			LDSWrites:        ctr.LDSWrites,
			LDSBankConflicts: ctr.LDSBankConflicts,
			BarrierWaits:     ctr.BarrierWaits,
			Degraded:         cold.Degraded(),
		})
	}

	got.Search = scoreboardSearch(t, cfg, mats)
	got.Batch = scoreboardBatch(t, fw, mats, 8)

	if !reflect.DeepEqual(got, modeledScoreboardGolden) {
		t.Fatalf("modeled scoreboard moved; if the move is intended, paste this over modeledScoreboardGolden (then gofmt):\n\n%s", got.literal())
	}
}

// scoreboardSearch searches the corpus three times, single-threaded: the
// legacy exhaustive pass, then the pool and synthesized spaces, each with a
// private cost cache and the certified pruner. The default space is the
// pool, so the legacy pass is the reference the pool pass must reproduce.
func scoreboardSearch(t *testing.T, cfg Config, mats []matgen.CorpusMatrix) scoreSearch {
	t.Helper()
	pass := func(space string, layered bool) ([]SearchResult, plancache.CostStats) {
		c := cfg
		c.Workers = 1
		c.KernelSpace = space
		c.DisableSearchCache = !layered
		c.DisableSearchPrune = !layered
		cc := plancache.NewCostCache(plancache.CostCacheOptions{})
		c.SearchCache = cc // unused, and its stats zero, when !layered
		res := make([]SearchResult, 0, len(mats))
		for _, cm := range mats {
			res = append(res, Search(c, cm.A))
		}
		return res, cc.Stats()
	}
	legacy, _ := pass("", false)
	pool, ps := pass("pool", true)
	synth, ss := pass("synth", true)

	poolSize := len(kernels.Pool())
	s := scoreSearch{
		PoolHits: ps.Hits, PoolMisses: ps.Misses, PoolPruned: ps.Pruned,
		PoolSims:  ps.Misses*int64(poolSize) - ps.Pruned,
		SynthHits: ss.Hits, SynthMisses: ss.Misses, SynthPruned: ss.Pruned,
		SynthSims: ss.Misses*int64(kernels.SynthSpace().Size()) - ss.Pruned,
	}
	minPerU := func(res SearchResult) float64 {
		best := math.Inf(1)
		for _, ul := range res.PerU {
			best = math.Min(best, ul.Seconds)
		}
		return best
	}
	var poolLog, synthLog float64
	for i, cm := range mats {
		if err := CheckSearchEquivalence(legacy[i], pool[i]); err != nil {
			t.Errorf("%s: cached+pruned pool search diverged from legacy: %v", cm.Name, err)
		}
		for _, ul := range legacy[i].PerU {
			for _, bl := range ul.Bins {
				s.LegacySims += int64(len(bl.KernelTimes))
			}
		}
		poolLog += math.Log(minPerU(pool[i]))
		synthLog += math.Log(minPerU(synth[i]))
		for _, bl := range synth[i].BestBins() {
			if bl.KernelID >= poolSize {
				s.SynthWins++
			}
		}
	}
	n := float64(len(mats))
	s.PoolGeoSeconds = math.Exp(poolLog / n)
	s.SynthGeoSeconds = math.Exp(synthLog / n)
	s.CycleRatio = s.SynthGeoSeconds / s.PoolGeoSeconds
	return s
}

// scoreboardBatch plans each corpus matrix once, serves it b times through
// the single-vector guarded path, then once through the fused b-vector
// path with the same distinct right-hand sides: the workload spmvd's
// coalescer produces.
func scoreboardBatch(t *testing.T, fw *Framework, mats []matgen.CorpusMatrix, b int) scoreBatch {
	t.Helper()
	ctx := context.Background()
	opt := DefaultGuardOptions()
	sb := scoreBatch{Vectors: b, Identical: true}
	for _, cm := range mats {
		a := cm.A
		p, err := fw.Plan(ctx, a)
		if err != nil {
			t.Fatalf("%s: plan: %v", cm.Name, err)
		}
		vs := make([][]float64, b)
		us := make([][]float64, b)
		refs := make([][]float64, b)
		for i := range vs {
			vs[i] = make([]float64, a.Cols)
			for j := range vs[i] {
				vs[i][j] = 1 + 0.5*float64(i) + 0.25*float64(j%7)
			}
			us[i] = make([]float64, a.Rows)
			refs[i] = make([]float64, a.Rows)
		}
		for i := range vs {
			rep, err := fw.ExecutePlanOpts(ctx, p, a, vs[i], refs[i], opt)
			if err != nil {
				t.Fatalf("%s: vector %d: %v", cm.Name, i, err)
			}
			sb.UnbatchedCycles += rep.Stats.Cycles
		}
		brep, err := fw.ExecutePlanBatchOpts(ctx, p, a, vs, us, opt)
		if err != nil {
			t.Fatalf("%s: batch: %v", cm.Name, err)
		}
		sb.BatchedCycles += brep.Shared.Stats.Cycles
		for _, pv := range brep.PerVector {
			if pv != nil {
				sb.BatchedCycles += pv.Stats.Cycles
			}
		}
		sb.Isolated += brep.Isolated
		for i := range us {
			for r := range us[i] {
				if math.Float64bits(us[i][r]) != math.Float64bits(refs[i][r]) {
					sb.Identical = false
				}
			}
		}
	}
	return sb
}
