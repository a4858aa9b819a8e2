package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"spmvtune/internal/errdefs"
	"spmvtune/internal/hsa"
	"spmvtune/internal/matgen"
	"spmvtune/internal/plan"
	"spmvtune/internal/plancache"
	"spmvtune/internal/sparse"
)

// bitsEqual compares float vectors bit-for-bit — the determinism contract
// is byte identity, not tolerance.
func bitsEqual(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestSearchWorkerDeterminism: the exhaustive search must label
// identically at every worker count — the labels are training ground
// truth, and nondeterministic ground truth poisons every model after it.
func TestSearchWorkerDeterminism(t *testing.T) {
	cfg := testConfig()
	a := matgen.Mixed(700, 700, 35, []int{2, 80}, 21)

	cfg.Workers = 1
	want, err := SearchCtx(context.Background(), cfg, a)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		cfg.Workers = w
		got, err := SearchCtx(context.Background(), cfg, a)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: search result differs from workers=1:\n got %+v\nwant %+v", w, got, want)
		}
	}
	// The legacy entry point wraps SearchCtx; it must agree too.
	cfg.Workers = 0
	if got := Search(cfg, a); !reflect.DeepEqual(got, want) {
		t.Fatalf("Search (workers=0) differs from SearchCtx(workers=1)")
	}
}

// TestSearchCostStatsWorkerDeterminism labels spmvd's bootstrap corpus on a
// fresh private cost cache at Workers 1, 2 and 8. Not only the labels but
// the cache's Hits, Misses and Pruned counts must be the same at every
// worker count: a search schedules each cell key once, its first cell
// simulating and the others replaying the cache right after on the same
// worker, so no worker count pays duplicate simulations.
func TestSearchCostStatsWorkerDeterminism(t *testing.T) {
	mats := matgen.Corpus(matgen.CorpusOptions{N: 24, MinRows: 256, MaxRows: 2048, Seed: 42})
	var want []SearchResult
	var wantStats plancache.CostStats
	for _, w := range []int{1, 2, 8} {
		cfg := DefaultConfig()
		cfg.Workers = w
		cfg.SearchCache = plancache.NewCostCache(plancache.CostCacheOptions{})
		var got []SearchResult
		for _, cm := range mats {
			res, err := SearchCtx(context.Background(), cfg, cm.A)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, res)
		}
		st := cfg.SearchCache.Stats()
		if w == 1 {
			want, wantStats = got, st
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: labels differ from workers=1", w)
		}
		if st.Hits != wantStats.Hits || st.Misses != wantStats.Misses || st.Pruned != wantStats.Pruned {
			t.Errorf("workers=%d: cost cache hits/misses/pruned %d/%d/%d, workers=1 %d/%d/%d",
				w, st.Hits, st.Misses, st.Pruned, wantStats.Hits, wantStats.Misses, wantStats.Pruned)
		}
	}
}

// TestSearchAllWorkerDeterminism: one batch search over spmvd's bootstrap
// corpus plus a structure repeated across matrices, a matrix with empty
// rows and a 0-row matrix labels every matrix exactly as a per-matrix
// Search does, and leaves the cost cache with the same Hits, Misses and
// Pruned counts, in both kernel spaces at Workers 1, 2 and 8. A canceled
// batch returns ErrCanceled and no results. Under -race the synthesized
// space labels only the four added matrices (the whole batch takes minutes
// there); scripts/check.sh runs the full batch without -race.
func TestSearchAllWorkerDeterminism(t *testing.T) {
	mats := matgen.Matrices(matgen.Corpus(matgen.CorpusOptions{N: 24, MinRows: 256, MaxRows: 2048, Seed: 42}))
	holes := matgen.Mixed(600, 600, 30, []int{3, 40}, 5)
	entries := make([][]sparse.Entry, holes.Rows)
	for i := range entries {
		if i%3 != 0 {
			cols, vals := holes.Row(i)
			for k, c := range cols {
				entries[i] = append(entries[i], sparse.Entry{Col: int(c), Val: vals[k]})
			}
		}
	}
	holey, err := sparse.NewCSRFromRows(holes.Rows, holes.Cols, entries)
	if err != nil {
		t.Fatal(err)
	}
	mats = append(mats, mats[3], mats[3].Clone(), holey, &sparse.CSR{Cols: 4, RowPtr: []int64{0}})

	for _, space := range []string{"pool", "synth"} {
		batch := mats
		if raceEnabled && space == "synth" {
			batch = mats[len(mats)-4:]
		}
		fresh := func(workers int) Config {
			cfg := DefaultConfig()
			cfg.KernelSpace = space
			cfg.Workers = workers
			cfg.SearchCache = plancache.NewCostCache(plancache.CostCacheOptions{})
			return cfg
		}
		ref := fresh(1)
		var want []SearchResult
		for _, a := range batch {
			want = append(want, Search(ref, a))
		}
		wantStats := ref.SearchCache.Stats()
		for _, w := range []int{1, 2, 8} {
			cfg := fresh(w)
			got, err := SearchAll(context.Background(), cfg, batch)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s workers=%d: SearchAll labels differ from per-matrix Search", space, w)
			}
			st := cfg.SearchCache.Stats()
			if st.Hits != wantStats.Hits || st.Misses != wantStats.Misses || st.Pruned != wantStats.Pruned {
				t.Errorf("%s workers=%d: cost cache hits/misses/pruned %d/%d/%d, per-matrix Search %d/%d/%d",
					space, w, st.Hits, st.Misses, st.Pruned, wantStats.Hits, wantStats.Misses, wantStats.Pruned)
			}
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := SearchAll(ctx, DefaultConfig(), mats)
	if !errors.Is(err, errdefs.ErrCanceled) || res != nil {
		t.Errorf("canceled SearchAll returned %d results and %v, want none and ErrCanceled", len(res), err)
	}
}

// TestSearchIgnoresValues: the tuning search, the feature vectors and the
// plan fingerprint read structure only, so value-free copies of the
// bootstrap corpus, a matrix with every third row empty and a 0x4 matrix
// get exactly what the valued matrices get — SearchAll results in both
// kernel spaces, with equal cost cache counts. Each side searches on a
// fresh cache: a shared one is keyed by structure and would replay the
// valued side's costs to the value-free side.
func TestSearchIgnoresValues(t *testing.T) {
	opts := matgen.CorpusOptions{N: 24, MinRows: 256, MaxRows: 2048, Seed: 42}
	valued, free := matgen.Matrices(matgen.Corpus(opts)), matgen.Matrices(matgen.ValueFreeCorpus(opts))
	holes := matgen.Mixed(600, 600, 30, []int{3, 40}, 5)
	entries := make([][]sparse.Entry, holes.Rows)
	for i := range entries {
		if i%3 != 0 {
			cols, vals := holes.Row(i)
			for k, c := range cols {
				entries[i] = append(entries[i], sparse.Entry{Col: int(c), Val: vals[k]})
			}
		}
	}
	holey, err := sparse.NewCSRFromRows(holes.Rows, holes.Cols, entries)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []*sparse.CSR{holey, {Cols: 4, RowPtr: []int64{0}}} {
		valued = append(valued, a)
		free = append(free, &sparse.CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: a.RowPtr, ColIdx: a.ColIdx})
	}

	for i, a := range valued {
		for _, cfg := range []Config{{}, {ExtendedFeatures: true}} {
			if got, want := cfg.FeatureVector(free[i]), cfg.FeatureVector(a); !reflect.DeepEqual(got, want) {
				t.Errorf("matrix %d extended=%v: value-free features %v, valued %v", i, cfg.ExtendedFeatures, got, want)
			}
		}
		if got, want := plan.Fingerprint(free[i]), plan.Fingerprint(a); got != want {
			t.Errorf("matrix %d: value-free fingerprint %s, valued %s", i, got, want)
		}
	}

	for _, space := range []string{"pool", "synth"} {
		v, f := valued, free
		if raceEnabled && space == "synth" {
			v, f = v[len(v)-3:], f[len(f)-3:]
		}
		search := func(mats []*sparse.CSR) ([]SearchResult, plancache.CostStats) {
			cfg := DefaultConfig()
			cfg.KernelSpace = space
			cfg.SearchCache = plancache.NewCostCache(plancache.CostCacheOptions{})
			res, err := SearchAll(context.Background(), cfg, mats)
			if err != nil {
				t.Fatal(err)
			}
			return res, cfg.SearchCache.Stats()
		}
		want, wantStats := search(v)
		got, gotStats := search(f)
		if !reflect.DeepEqual(got, want) {
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("%s: matrix %d value-free search %+v, valued %+v", space, i, got[i], want[i])
					break
				}
			}
		}
		if gotStats != wantStats {
			t.Errorf("%s: value-free cost cache %+v, valued %+v", space, gotStats, wantStats)
		}
	}
}

func TestSearchCtxCancellation(t *testing.T) {
	cfg := testConfig()
	a := matgen.Mixed(400, 400, 20, []int{2, 50}, 22)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SearchCtx(ctx, cfg, a); !errors.Is(err, errdefs.ErrCanceled) {
		t.Fatalf("canceled search returned %v, want ErrCanceled", err)
	}
}

// normalizeProfiles strips the fields that describe how the host got the
// numbers rather than the numbers — wall time, and whether the launch
// replayed the memo — so profiles can be compared exactly.
func normalizeProfiles(ps []plan.ExecProfile) []plan.ExecProfile {
	out := make([]plan.ExecProfile, len(ps))
	copy(out, ps)
	for i := range out {
		out[i].WallNs = 0
		out[i].Replayed = false
	}
	return out
}

// guardedRun executes one guarded run with the given bin-pool size and
// returns everything the determinism contract covers.
func guardedRun(t *testing.T, fw *Framework, workers int) ([]float64, Decision, *ExecReport) {
	t.Helper()
	a, v, _ := guardMatrix()
	u := make([]float64, a.Rows)
	opt := DefaultGuardOptions()
	opt.Counters = true
	opt.Workers = workers
	d, rep, err := runGuarded(context.Background(), fw, a, v, u, opt)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return u, d, rep
}

// assertReportsEqual fails unless two guarded runs reported the same
// service: Stats, Counters, degradation counts, bin reports and execution
// profiles (wall time excepted — it is measured, not modeled). Two nil
// reports are equal.
func assertReportsEqual(t *testing.T, label string, want, got *ExecReport) {
	t.Helper()
	if want == nil || got == nil {
		if want != got {
			t.Errorf("%s: one report is nil: %v vs %v", label, want, got)
		}
		return
	}
	if want.Stats != got.Stats {
		t.Errorf("%s: stats differ:\n %+v\n %+v", label, want.Stats, got.Stats)
	}
	if want.Counters != got.Counters {
		t.Errorf("%s: counters differ:\n %+v\n %+v", label, want.Counters, got.Counters)
	}
	if want.Retries != got.Retries || want.Fallbacks != got.Fallbacks || want.CPUServed != got.CPUServed {
		t.Errorf("%s: degradation accounting differs: {r%d f%d c%d} vs {r%d f%d c%d}", label,
			want.Retries, want.Fallbacks, want.CPUServed, got.Retries, got.Fallbacks, got.CPUServed)
	}
	if !reflect.DeepEqual(want.Bins, got.Bins) {
		t.Errorf("%s: bin reports differ:\n %+v\n %+v", label, want.Bins, got.Bins)
	}
	if !reflect.DeepEqual(normalizeProfiles(want.Profiles), normalizeProfiles(got.Profiles)) {
		t.Errorf("%s: exec profiles differ:\n %+v\n %+v", label, want.Profiles, got.Profiles)
	}
}

// TestGuardedWorkerDeterminism is the end-to-end golden test: the bin pool
// size must not show in the result. Workers=1 and Workers=8 must produce
// byte-identical output vectors, decisions and reports for a single-vector
// run, and so must Workers 1, 2 and 4 for plan execution at widths 3 and 8
// — clean, and with a persistent NaN poison on every bin, which corrupts
// one vector per bin and sends it through isolation.
func TestGuardedWorkerDeterminism(t *testing.T) {
	fw := guardFramework(t)
	u1, d1, rep1 := guardedRun(t, fw, 1)
	u8, d8, rep8 := guardedRun(t, fw, 8)

	if i := bitsEqual(u1, u8); i != -1 {
		t.Fatalf("output vectors differ at row %d: %x vs %x", i, u1[i], u8[i])
	}
	if !reflect.DeepEqual(d1, d8) {
		t.Errorf("decisions differ: %+v vs %+v", d1, d8)
	}
	assertReportsEqual(t, "w=1 vs w=8", rep1, rep8)

	a, _, _ := guardMatrix()
	p, err := fw.Plan(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Bins) < 2 {
		t.Fatalf("plan has %d bins; the bin pool needs at least 2 to matter", len(p.Bins))
	}
	for _, nb := range []int{3, 8} {
		for _, poison := range []bool{false, true} {
			run := func(workers int) ([][]float64, *BatchReport) {
				vs, us, _ := batchTestVectors(a, nb, 61)
				opt := DefaultGuardOptions()
				opt.Counters = true
				opt.Backoff = -1
				opt.Workers = workers
				if poison {
					opt.Faults = hsa.NewFaultPlan().AddFault(hsa.Fault{Class: hsa.FaultNaNPoison})
				}
				rep, err := fw.ExecutePlanBatchOpts(context.Background(), p, a, vs, us, opt)
				if err != nil {
					t.Fatalf("B=%d poison=%v workers=%d: %v", nb, poison, workers, err)
				}
				return us, rep
			}
			wantUs, want := run(1)
			if poison && want.Isolated == 0 {
				t.Fatalf("B=%d: poison isolated no vector — the fault path was not exercised", nb)
			}
			for _, workers := range []int{2, 4} {
				label := fmt.Sprintf("B=%d poison=%v w=1 vs w=%d", nb, poison, workers)
				us, got := run(workers)
				for b := range us {
					if i := bitsEqual(wantUs[b], us[b]); i != -1 {
						t.Fatalf("%s: vector %d differs at row %d", label, b, i)
					}
				}
				if got.Isolated != want.Isolated {
					t.Errorf("%s: Isolated %d vs %d", label, want.Isolated, got.Isolated)
				}
				assertReportsEqual(t, label+" shared", want.Shared, got.Shared)
				for b := range want.PerVector {
					assertReportsEqual(t, fmt.Sprintf("%s vector %d", label, b), want.PerVector[b], got.PerVector[b])
				}
			}
		}
	}
}

// TestPlanFingerprintWorkerDeterminism: plans computed while parallel
// execution is in play must carry the same fingerprints and model version
// regardless of worker count.
func TestPlanFingerprintWorkerDeterminism(t *testing.T) {
	fw := guardFramework(t)
	a, _, _ := guardMatrix()
	p1, err := fw.Plan(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	fw.Cfg.Workers = 8
	p8, err := fw.Plan(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Fingerprint != p8.Fingerprint || p1.ModelVersion != p8.ModelVersion {
		t.Fatalf("plan identity differs: %s/%s vs %s/%s",
			p1.Fingerprint, p1.ModelVersion, p8.Fingerprint, p8.ModelVersion)
	}
	if !reflect.DeepEqual(p1.Bins, p8.Bins) {
		t.Fatalf("plan bins differ: %+v vs %+v", p1.Bins, p8.Bins)
	}
}

// TestGuardedParallelFaults: fault injection and the fallback chain keep
// their per-bin semantics when bins run on a pool — the merged report must
// equal the sequential run's (wall time excepted).
func TestGuardedParallelFaults(t *testing.T) {
	fw := guardFramework(t)
	a, v, want := guardMatrix()

	run := func(workers int) ([]float64, *ExecReport) {
		u := make([]float64, a.Rows)
		opt := DefaultGuardOptions()
		opt.Backoff = -1
		opt.Workers = workers
		opt.Faults = hsa.NewFaultPlan().
			AddFault(hsa.Fault{Class: hsa.FaultBarrierDivergence, Transient: 1})
		_, rep, err := runGuarded(context.Background(), fw, a, v, u, opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return u, rep
	}

	u1, rep1 := run(1)
	u4, rep4 := run(4)
	if i := bitsEqual(u1, u4); i != -1 {
		t.Fatalf("faulted outputs differ at row %d", i)
	}
	for i := range want {
		if math.Abs(u4[i]-want[i]) > 1e-9 {
			t.Fatalf("faulted run not verified at row %d", i)
		}
	}
	if rep1.Retries == 0 {
		t.Fatal("transient fault injected no retries — the fault path was not exercised")
	}
	if !rep4.Degraded() {
		t.Fatal("faulted run at workers=4 reports no degradation")
	}
	assertReportsEqual(t, "faulted w=1 vs w=4", rep1, rep4)
}

// TestExecutePlanConcurrentStress: many goroutines executing the same
// shared plan against the same framework, each with a parallel bin pool —
// the scenario spmvd serves. Run with -race in CI; every result must
// verify and match the others bit-for-bit.
func TestExecutePlanConcurrentStress(t *testing.T) {
	fw := guardFramework(t)
	a, v, _ := guardMatrix()
	p, err := fw.Plan(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	outs := make([][]float64, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			u := make([]float64, a.Rows)
			opt := DefaultGuardOptions()
			opt.Counters = true
			opt.Workers = 2
			_, errs[g] = fw.ExecutePlanOpts(context.Background(), p, a, v, u, opt)
			outs[g] = u
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if i := bitsEqual(outs[0], outs[g]); i != -1 {
			t.Fatalf("goroutine %d output differs at row %d", g, i)
		}
	}
}

// TestForEachLimitPanicOrder: the pool must re-raise the lowest task
// index's panic — the one a sequential loop would have hit first.
func TestForEachLimitPanicOrder(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		got := func() (rec any) {
			defer func() { rec = recover() }()
			forEachLimit(workers, 10, func(i int) {
				if i == 3 || i == 7 {
					panic(i)
				}
			})
			return nil
		}()
		if got != 3 {
			t.Errorf("workers=%d: recovered %v, want 3", workers, got)
		}
	}
}
