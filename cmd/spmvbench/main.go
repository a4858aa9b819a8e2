// Command spmvbench runs the auto-tuning framework over the synthetic
// matgen corpus and writes a machine-readable benchmark file — the perf
// trajectory of the repo as data instead of anecdote:
//
//	spmvbench -out BENCH_PR10.json                     # measure
//	spmvbench -out new.json -baseline BENCH_PR10.json  # measure + gate
//
// Each case records modeled device cycles, a GFLOPS-equivalent derived
// from the simulated clock, host ns/op, and a device-counter summary
// (lane utilization, LDS mix, load imbalance). The modeled metrics are
// deterministic — identical code produces identical numbers on any
// machine — so CI gates on cycles with a relative threshold and treats
// wall time as informational.
//
// The run also benchmarks the exhaustive tuning search sequentially
// (Workers=1) and in parallel (-workers), requiring identical labels from
// both (the speedup is printed, not gated). A second search comparison
// times the legacy exhaustive path (cost cache and pruner disabled)
// against the cached+pruned default, requiring byte-identical labels and
// at least
// -min-tune-sim-ratio times fewer simulated launches (a deterministic
// count; the wall-clock speedup is reported, not gated). Exit codes: 0
// clean, 1 regression vs the baseline or a failed search gate, 2
// setup/usage failure.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"sort"
	"time"

	"spmvtune/internal/c50"
	"spmvtune/internal/core"
	"spmvtune/internal/kernels"
	"spmvtune/internal/matgen"
	"spmvtune/internal/plancache"
)

func main() {
	out := flag.String("out", "BENCH_PR10.json", "output results file")
	baseline := flag.String("baseline", "", "baseline results file to gate against (empty = measure only)")
	threshold := flag.Float64("threshold", 1.25, "fail when a case's cycles exceed baseline*threshold")
	n := flag.Int("n", 10, "benchmark corpus size")
	iters := flag.Int("iters", 3, "guarded executions per case (min wall time wins)")
	modelPath := flag.String("model", "", "trained model file (empty: bootstrap-train deterministically)")
	trainCorpus := flag.Int("train-corpus", 8, "bootstrap training corpus size when no -model is given")
	seed := flag.Int64("seed", 42, "corpus seed")
	workers := flag.Int("workers", 8, "parallel-search worker count for the seq-vs-parallel comparison (<= 1 skips it)")
	minTuneSimRatio := flag.Float64("min-tune-sim-ratio", 1.4, "required ratio of the legacy exhaustive search's simulated launches over the cached+pruned search's (0 disables)")
	maxSynthSims := flag.Float64("max-synth-sims", 4.0, "maximum simulated-cell ratio of the synthesized-space search over the pool search (0 disables)")
	batchVectors := flag.Int("batch-vectors", 8, "right-hand sides per fused launch in the batch comparison (<= 1 skips it)")
	maxBatchRatio := flag.Float64("max-batch-ratio", 0.6, "maximum modeled cycles-per-request ratio of the fused batch path over the unbatched path (0 disables)")
	flag.Parse()

	if err := run(*out, *baseline, *threshold, *n, *iters, *modelPath, *trainCorpus, *seed, *workers, *minTuneSimRatio, *maxSynthSims, *batchVectors, *maxBatchRatio); err != nil {
		fmt.Fprintln(os.Stderr, "spmvbench:", err)
		os.Exit(2)
	}
}

func run(out, baseline string, threshold float64, n, iters int, modelPath string, trainCorpus int, seed int64, workers int, minTuneSimRatio, maxSynthSims float64, batchVectors int, maxBatchRatio float64) error {
	cfg := core.DefaultConfig()
	model, err := obtainModel(cfg, modelPath, trainCorpus, seed)
	if err != nil {
		return err
	}
	fw := core.NewFramework(cfg, model)

	mats := matgen.Corpus(matgen.CorpusOptions{N: n, MinRows: 512, MaxRows: 2048, Seed: seed})
	results := &Results{Schema: Schema, GoVersion: runtime.Version(), HostCPUs: runtime.NumCPU()}
	for _, cm := range mats {
		c, err := benchCase(fw, cm, iters)
		if err != nil {
			return fmt.Errorf("case %s: %w", cm.Name, err)
		}
		fmt.Printf("%-18s %7d rows %9d nnz  %12.0f cycles  %7.2f GFLOPS-eq  %9d ns/op cold  %8d warm  lanes %.2f\n",
			c.Name, c.Rows, c.NNZ, c.Cycles, c.GFLOPSEquivalent, c.NsPerOp, c.NsPerOpWarm, c.Counters.ActiveLaneRatio)
		results.Cases = append(results.Cases, *c)
	}
	var regressions []string
	if workers > 1 {
		sb := searchBench(cfg, mats, workers)
		results.Search = sb
		fmt.Printf("search: %d matrices, seq %.3fs, parallel(%d) %.3fs, %.2fx speedup, identical=%v (host CPUs: %d)\n",
			sb.Matrices, sb.SeqSeconds, sb.Workers, sb.ParSeconds, sb.Speedup, sb.Identical, sb.HostCPUs)
		regressions = append(regressions, CheckSearch(sb)...)
	}
	tb := tuneBench(cfg, mats)
	results.Tune = tb
	fmt.Printf("tune: %d matrices, %d simulated launches legacy vs %d cached+pruned (%.2fx), identical=%v (cache: %d hits, %d misses, %d cells pruned; wall %.3fs vs %.3fs, %.2fx, not gated)\n",
		tb.Matrices, tb.LegacySims, tb.TunedSims, tb.SimRatio, tb.Identical,
		tb.CacheHits, tb.CacheMisses, tb.Pruned, tb.LegacySeconds, tb.TunedSeconds, tb.Speedup)
	regressions = append(regressions, CheckTune(tb, minTuneSimRatio)...)
	yb := synthBench(cfg, mats)
	results.Synth = yb
	fmt.Printf("synth: %d matrices, space %d vs pool %d kernels, cycle ratio %.4f, sims %d vs %d (%.2fx), pool identical=%v, %d synth wins\n",
		yb.Matrices, yb.SpaceSize, yb.PoolSize, yb.CycleRatio, yb.SynthSims, yb.PoolSims, yb.SimRatio, yb.PoolIdentical, yb.SynthWins)
	regressions = append(regressions, CheckSynth(yb, maxSynthSims)...)
	if batchVectors > 1 {
		bb, err := batchBench(fw, mats, batchVectors)
		if err != nil {
			return fmt.Errorf("batch bench: %w", err)
		}
		results.Batch = bb
		fmt.Printf("batch: %d matrices x %d vectors, fused %.0f cycles vs %.0f unbatched (%.4f per-request ratio), identical=%v, isolated=%d\n",
			bb.Matrices, bb.Vectors, bb.BatchedCycles, bb.UnbatchedCycles, bb.CyclesPerRequestRatio, bb.Identical, bb.Isolated)
		regressions = append(regressions, CheckBatch(bb, maxBatchRatio)...)
	}
	if err := results.WriteFile(out); err != nil {
		return err
	}
	fmt.Printf("wrote %d cases to %s\n", len(results.Cases), out)

	if baseline != "" {
		base, err := ReadResults(baseline)
		if err != nil {
			return err
		}
		cycleRegs := Compare(base, results, threshold)
		if len(cycleRegs) == 0 {
			fmt.Printf("no regressions vs %s (threshold %.2fx)\n", baseline, threshold)
		}
		regressions = append(regressions, cycleRegs...)
	}
	if len(regressions) == 0 {
		return nil
	}
	fmt.Fprintf(os.Stderr, "%d regression(s):\n", len(regressions))
	for _, r := range regressions {
		fmt.Fprintln(os.Stderr, "  "+r)
	}
	os.Exit(1)
	return nil
}

// searchBench times the exhaustive tuning search over the largest corpus
// matrices twice — Workers=1, then Workers=workers — and checks the two
// passes produced identical labels. The matrices are the same either way,
// so the wall-time ratio isolates the host-pool speedup.
func searchBench(cfg core.Config, mats []matgen.CorpusMatrix, workers int) *SearchBench {
	picks := make([]matgen.CorpusMatrix, len(mats))
	copy(picks, mats)
	sort.Slice(picks, func(i, j int) bool { return picks[i].A.NNZ() > picks[j].A.NNZ() })
	if len(picks) > 3 {
		picks = picks[:3]
	}

	pass := func(w int) ([]core.SearchResult, float64) {
		c := cfg
		c.Workers = w
		// A fresh cost cache per pass keeps the comparison about the host
		// pool: with the process-wide shared cache, the second pass would
		// replay the first pass's simulations and report a speedup that has
		// nothing to do with parallelism.
		c.SearchCache = plancache.NewCostCache(plancache.CostCacheOptions{})
		start := time.Now()
		res := make([]core.SearchResult, 0, len(picks))
		for _, cm := range picks {
			res = append(res, core.Search(c, cm.A))
		}
		return res, time.Since(start).Seconds()
	}
	seqRes, seqS := pass(1)
	parRes, parS := pass(workers)

	sb := &SearchBench{
		Matrices:   len(picks),
		Workers:    workers,
		HostCPUs:   runtime.NumCPU(),
		SeqSeconds: seqS,
		ParSeconds: parS,
		Identical:  reflect.DeepEqual(seqRes, parRes),
	}
	if parS > 0 {
		sb.Speedup = seqS / parS
	}
	return sb
}

// tuneBench times the exhaustive search over the whole corpus twice, both
// passes single-threaded: legacy (cost cache and lower-bound pruner
// disabled — every cell simulated from scratch, the pre-cache behavior)
// and tuned (a fresh private cost cache plus pruning — the production
// default, isolated from the process-wide cache so the measurement starts
// cold). The gated quantity is the simulated-launch count of each pass —
// the legacy pass simulates every kernel of every (U, bin) cell, the tuned
// pass every kernel of every missed cell minus the pruned ones — which
// repeats exactly on any host and does not move when the simulator itself
// gets faster. Equivalence is checked after the clocks stop so the gate
// never contaminates the timing.
func tuneBench(cfg core.Config, mats []matgen.CorpusMatrix) *TuneBench {
	legacyCfg := cfg
	legacyCfg.Workers = 1
	legacyCfg.DisableSearchCache = true
	legacyCfg.DisableSearchPrune = true

	tunedCfg := cfg
	tunedCfg.Workers = 1
	cc := plancache.NewCostCache(plancache.CostCacheOptions{})
	tunedCfg.SearchCache = cc

	start := time.Now()
	legacy := make([]core.SearchResult, 0, len(mats))
	for _, cm := range mats {
		legacy = append(legacy, core.Search(legacyCfg, cm.A))
	}
	legacyS := time.Since(start).Seconds()

	start = time.Now()
	tuned := make([]core.SearchResult, 0, len(mats))
	for _, cm := range mats {
		tuned = append(tuned, core.Search(tunedCfg, cm.A))
	}
	tunedS := time.Since(start).Seconds()

	tb := &TuneBench{
		Matrices:      len(mats),
		HostCPUs:      runtime.NumCPU(),
		LegacySeconds: legacyS,
		TunedSeconds:  tunedS,
		Identical:     true,
	}
	for i := range mats {
		if err := core.CheckSearchEquivalence(legacy[i], tuned[i]); err != nil {
			fmt.Fprintf(os.Stderr, "tune: %s: %v\n", mats[i].Name, err)
			tb.Identical = false
		}
	}
	st := cc.Stats()
	tb.CacheHits, tb.CacheMisses, tb.Pruned = st.Hits, st.Misses, st.Pruned
	if tunedS > 0 {
		tb.Speedup = legacyS / tunedS
	}
	for _, res := range legacy {
		for _, ul := range res.PerU {
			for _, bl := range ul.Bins {
				tb.LegacySims += int64(len(bl.KernelTimes))
			}
		}
	}
	tb.TunedSims = st.Misses*int64(len(kernels.Pool())) - st.Pruned
	if tb.TunedSims > 0 {
		tb.SimRatio = float64(tb.LegacySims) / float64(tb.TunedSims)
	}
	return tb
}

// synthBench runs the parameter-space synthesis comparison: the corpus
// searched in the degenerate pool space and in the synthesized space, both
// sequential with a fresh private cost cache and the certified pruner on.
// A third, legacy pass (default space, no cache, no pruner) anchors the
// degenerate-subspace contract: the pool pass must reproduce its labels
// exactly. Simulated-cell counts come from the cache counters — each missed
// cell simulates the space minus its pruned kernels — so SimRatio measures
// how much of the 4x larger space the lower bounds actually discard.
func synthBench(cfg core.Config, mats []matgen.CorpusMatrix) *SynthBench {
	pass := func(space string, layered bool) ([]core.SearchResult, int64) {
		c := cfg
		c.Workers = 1
		c.KernelSpace = space
		sp, err := c.Space()
		if err != nil {
			panic(err) // space names here are compile-time constants
		}
		c.DisableSearchCache = !layered
		c.DisableSearchPrune = !layered
		var cc *plancache.CostCache
		if layered {
			cc = plancache.NewCostCache(plancache.CostCacheOptions{})
			c.SearchCache = cc
		}
		res := make([]core.SearchResult, 0, len(mats))
		for _, cm := range mats {
			res = append(res, core.Search(c, cm.A))
		}
		var sims int64
		if cc != nil {
			st := cc.Stats()
			sims = st.Misses*int64(sp.Size()) - st.Pruned
		}
		return res, sims
	}
	legacy, _ := pass("", false)
	pool, poolSims := pass("pool", true)
	synth, synthSims := pass("synth", true)

	sb := &SynthBench{
		Matrices:      len(mats),
		PoolSize:      len(kernels.Pool()),
		SpaceSize:     kernels.SynthSpace().Size(),
		PoolSims:      poolSims,
		SynthSims:     synthSims,
		PoolIdentical: true,
	}
	// Best-achievable modeled time per space: the minimum per-U sum, which
	// compares capability without the smallest-U labeling tie-break.
	minPerU := func(res core.SearchResult) float64 {
		best := math.Inf(1)
		for _, ul := range res.PerU {
			if ul.Seconds < best {
				best = ul.Seconds
			}
		}
		return best
	}
	var poolLog, synthLog float64
	for i := range mats {
		if err := core.CheckSearchEquivalence(legacy[i], pool[i]); err != nil {
			fmt.Fprintf(os.Stderr, "synth: %s: pool pass diverged: %v\n", mats[i].Name, err)
			sb.PoolIdentical = false
		}
		poolLog += math.Log(minPerU(pool[i]))
		synthLog += math.Log(minPerU(synth[i]))
		for _, bl := range synth[i].BestBins() {
			if bl.KernelID >= sb.PoolSize {
				sb.SynthWins++
			}
		}
	}
	n := float64(len(mats))
	sb.PoolGeoSeconds = math.Exp(poolLog / n)
	sb.SynthGeoSeconds = math.Exp(synthLog / n)
	if sb.PoolGeoSeconds > 0 {
		sb.CycleRatio = sb.SynthGeoSeconds / sb.PoolGeoSeconds
	}
	if poolSims > 0 {
		sb.SimRatio = float64(synthSims) / float64(poolSims)
	}
	return sb
}

// batchBench runs the fused multi-vector comparison: each corpus matrix is
// planned once, served b times through the single-vector guarded path, then
// once through the fused b-vector batch path with distinct right-hand
// sides. The shared-structure workload is exactly what spmvd's coalescer
// produces — b requests against one matrix inside a window — so the
// per-request cycle ratio measures the DRAM amortization the coalescer
// delivers, and the byte-identity check is the demux contract. Modeled
// cycles are deterministic, so both are CI gates.
func batchBench(fw *core.Framework, mats []matgen.CorpusMatrix, b int) (*BatchBench, error) {
	bb := &BatchBench{Matrices: len(mats), Vectors: b, Identical: true}
	opt := core.DefaultGuardOptions()
	for _, cm := range mats {
		a := cm.A
		p, err := fw.Plan(context.Background(), a)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cm.Name, err)
		}
		vs := make([][]float64, b)
		us := make([][]float64, b)
		refs := make([][]float64, b)
		for i := 0; i < b; i++ {
			vs[i] = make([]float64, a.Cols)
			for j := range vs[i] {
				vs[i][j] = 1 + 0.5*float64(i) + 0.25*float64(j%7)
			}
			us[i] = make([]float64, a.Rows)
			refs[i] = make([]float64, a.Rows)
		}
		for i := 0; i < b; i++ {
			rep, err := fw.ExecutePlanOpts(context.Background(), p, a, vs[i], refs[i], opt)
			if err != nil {
				return nil, fmt.Errorf("%s: vector %d: %w", cm.Name, i, err)
			}
			bb.UnbatchedCycles += rep.Stats.Cycles
		}
		brep, err := fw.ExecutePlanBatchOpts(context.Background(), p, a, vs, us, opt)
		if err != nil {
			return nil, fmt.Errorf("%s: batch: %w", cm.Name, err)
		}
		bb.BatchedCycles += brep.Shared.Stats.Cycles
		for _, pv := range brep.PerVector {
			if pv != nil {
				bb.BatchedCycles += pv.Stats.Cycles
			}
		}
		bb.Isolated += brep.Isolated
		for i := 0; i < b; i++ {
			for r := 0; r < a.Rows; r++ {
				if math.Float64bits(us[i][r]) != math.Float64bits(refs[i][r]) {
					bb.Identical = false
					fmt.Fprintf(os.Stderr, "batch: %s: vector %d row %d: fused %v vs sequential %v\n",
						cm.Name, i, r, us[i][r], refs[i][r])
					break
				}
			}
		}
	}
	if bb.UnbatchedCycles > 0 {
		bb.CyclesPerRequestRatio = bb.BatchedCycles / bb.UnbatchedCycles
	}
	return bb, nil
}

// benchCase plans once, then executes the plan through the guarded executor
// with counters enabled, iters times each on a fresh Framework — a fresh
// Framework's replay memo is cold, so every iteration's first execution is
// an independent simulation and the determinism the CI gate depends on is
// asserted between simulations, not between a memo and itself. The modeled
// metrics come from the first run; NsPerOp is the minimum wall time of those
// cold (simulating) executions and NsPerOpWarm of the execution that follows
// each on the same Framework (replayed — what a served request pays), the
// minimum being the standard noise floor estimate.
func benchCase(fw *core.Framework, cm matgen.CorpusMatrix, iters int) (*Case, error) {
	a := cm.A
	v := make([]float64, a.Cols)
	for i := range v {
		v[i] = 1
	}
	u := make([]float64, a.Rows)
	p, err := fw.Plan(context.Background(), a)
	if err != nil {
		return nil, err
	}
	opt := core.DefaultGuardOptions()
	opt.Counters = true

	c := &Case{
		Name: cm.Name, Family: cm.Family,
		Rows: a.Rows, Cols: a.Cols, NNZ: int64(a.NNZ()),
		U: p.U, Bins: len(p.Bins),
	}
	timed := func(f *core.Framework) (*core.ExecReport, int64, error) {
		start := time.Now()
		rep, err := f.ExecutePlanOpts(context.Background(), p, a, v, u, opt)
		return rep, time.Since(start).Nanoseconds(), err
	}
	for i := 0; i < max(iters, 1); i++ {
		fresh := core.NewFramework(fw.Cfg, fw.Model())
		cold, coldNs, err := timed(fresh)
		if err != nil {
			return nil, err
		}
		warm, warmNs, err := timed(fresh)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			c.Cycles = cold.Stats.Cycles
			c.SimSeconds = cold.Stats.Seconds
			if cold.Stats.Seconds > 0 {
				c.GFLOPSEquivalent = 2 * float64(c.NNZ) / cold.Stats.Seconds / 1e9
			}
			c.Degraded = cold.Degraded()
			c.NsPerOp, c.NsPerOpWarm = coldNs, warmNs
			ctr := cold.Counters
			c.Counters = CounterSummary{
				ActiveLaneRatio:  ctr.ActiveLaneRatio(),
				LoadImbalance:    ctr.LoadImbalance(),
				MemInstrs:        ctr.MemInstrs,
				LDSReads:         ctr.LDSReads,
				LDSWrites:        ctr.LDSWrites,
				LDSBankConflicts: ctr.LDSBankConflicts,
				BarrierWaits:     ctr.BarrierWaits,
			}
		}
		for _, rep := range []*core.ExecReport{cold, warm} {
			if rep.Stats.Cycles != c.Cycles {
				return nil, fmt.Errorf("nondeterministic cycles: %v then %v", c.Cycles, rep.Stats.Cycles)
			}
		}
		c.NsPerOp = min(c.NsPerOp, coldNs)
		c.NsPerOpWarm = min(c.NsPerOpWarm, warmNs)
	}
	return c, nil
}

// obtainModel loads a trained model or bootstrap-trains one from a seeded
// corpus. The bootstrap is deterministic: same seed, same model, same
// plans, same cycles — on every machine.
func obtainModel(cfg core.Config, path string, corpus int, seed int64) (*core.Model, error) {
	if path != "" {
		return core.LoadModel(path)
	}
	if corpus < 2 {
		corpus = 2
	}
	mats := matgen.Corpus(matgen.CorpusOptions{N: corpus, MinRows: 256, MaxRows: 1024, Seed: seed})
	td := core.NewTrainingData(cfg)
	for _, cm := range mats {
		td.AddMatrix(cfg, cm.A)
	}
	return core.TrainModel(td, cfg, c50.DefaultOptions()), nil
}
