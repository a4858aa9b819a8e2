package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"spmvtune/internal/binning"
	"spmvtune/internal/hsa"
	"spmvtune/internal/kernels"
	"spmvtune/internal/matgen"
	"spmvtune/internal/plan"
	"spmvtune/internal/sparse"
)

// uniformPlan hand-builds the version-2 plan that serves every non-empty
// bin of a (coarse, U=50) with synth-space kernel kid — the way to put one
// chosen point of the space on the serve path without a model.
func uniformPlan(cfg Config, a *sparse.CSR, kid int) *plan.TuningPlan {
	const u = 50
	p := &plan.TuningPlan{
		Version: plan.FormatVersion, Space: "synth",
		Fingerprint: plan.Fingerprint(a),
		Rows:        a.Rows, Cols: a.Cols, NNZ: a.NNZ(),
		U: u, MaxBins: cfg.MaxBins, Scheme: "coarse",
	}
	b := binning.Coarse(a, u, cfg.MaxBins)
	for _, binID := range b.NonEmpty() {
		p.Bins = append(p.Bins, plan.BinAssignment{Bin: binID, Rows: b.NumRows(binID), Groups: len(b.Bins[binID]), Kernel: kid})
	}
	return p
}

func assertBitsEqual(t *testing.T, label string, want, got [][]float64) {
	t.Helper()
	for b := range want {
		for r := range want[b] {
			if math.Float64bits(want[b][r]) != math.Float64bits(got[b][r]) {
				t.Fatalf("%s: vector %d row %d: %v vs %v", label, b, r, want[b][r], got[b][r])
			}
		}
	}
}

func assertBatchReportsEqual(t *testing.T, label string, want, got *BatchReport) {
	t.Helper()
	assertReportsEqual(t, label+" shared", want.Shared, got.Shared)
	if want.Isolated != 0 || got.Isolated != 0 {
		t.Errorf("%s: isolated vectors on a fault-free run: %d vs %d", label, want.Isolated, got.Isolated)
	}
}

// TestReplayEqualsSimulate is the replay contract: for every point of the
// synthesized space, at every launch width and with counters on and off,
// the 2nd and 3rd executions of a plan on one Framework (replayed) return
// exactly what the 1st (simulated) did, and what a cold Framework returns —
// outputs, Stats, Counters, bin reports and profiles (wall time and the
// Replayed mark excepted).
func TestReplayEqualsSimulate(t *testing.T) {
	mats := matgen.Corpus(matgen.CorpusOptions{N: 4, MinRows: 96, MaxRows: 320, Seed: 11})
	points := kernels.SynthSpace().Infos
	if raceEnabled || testing.Short() {
		// The detector makes each simulation ~10x slower, and this test is
		// single-goroutine: one matrix, every fifth point (all three walker
		// families). TestReplayConcurrentFirstRequests is the race test.
		mats = mats[:1]
		var sample []kernels.Info
		for i := 0; i < len(points); i += 5 {
			sample = append(sample, points[i])
		}
		points = sample
	}
	ctx := context.Background()
	for _, cm := range mats {
		a := cm.A
		for _, info := range points {
			cfg := testConfig()
			p := uniformPlan(cfg, a, info.ID)
			for _, nb := range []int{1, 3, 8} {
				for _, counters := range []bool{false, true} {
					label := fmt.Sprintf("%s %s B=%d counters=%v", cm.Name, info.Name, nb, counters)
					opt := DefaultGuardOptions()
					opt.Counters = counters
					vs, _, _ := batchTestVectors(a, nb, 3)
					exec := func(fw *Framework) ([][]float64, *BatchReport) {
						us := make([][]float64, nb)
						for b := range us {
							us[b] = make([]float64, a.Rows)
						}
						brep, err := fw.ExecutePlanBatchOpts(ctx, p, a, vs, us, opt)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						return us, brep
					}
					fw := NewFramework(cfg, nil)
					u1, r1 := exec(fw)
					for _, pr := range r1.Shared.Profiles {
						if pr.Replayed {
							t.Fatalf("%s: first execution on a fresh framework replayed bin %d", label, pr.Bin)
						}
					}
					for run := 2; run <= 3; run++ {
						u, r := exec(fw)
						assertBitsEqual(t, fmt.Sprintf("%s run %d", label, run), u1, u)
						assertBatchReportsEqual(t, fmt.Sprintf("%s run %d", label, run), r1, r)
						for _, pr := range r.Shared.Profiles {
							if !pr.Replayed {
								t.Fatalf("%s run %d: bin %d simulated again", label, run, pr.Bin)
							}
						}
					}
					if sim, rep := fw.LaunchCounts(); sim != int64(len(p.Bins)) || rep != 2*sim {
						t.Fatalf("%s: %d simulated / %d replayed launches, want %d / %d", label, sim, rep, len(p.Bins), 2*len(p.Bins))
					}
					uc, rc := exec(NewFramework(cfg, nil))
					assertBitsEqual(t, label+" cold", u1, uc)
					assertBatchReportsEqual(t, label+" cold", r1, rc)
				}
			}
		}
	}
}

// TestReplayServesReferenceBits: a replayed bin is served from the reference
// product, so after a warm execution of a multi-bin plan every row of every
// output — prefilled with a NaN sentinel, so a row no bin covers would show
// — carries MulVec's bits for its own vector. The memo still supplies the
// cold launches' accounting: every profile is Replayed, and Stats, Counters,
// bin reports and profiles equal the cold run's.
func TestReplayServesReferenceBits(t *testing.T) {
	a := matgen.Mixed(600, 600, 50, []int{2, 60}, 7) // U=50: two bins of six groups
	cfg := testConfig()
	p := uniformPlan(cfg, a, kernels.SynthSpace().Infos[7].ID)
	if len(p.Bins) < 2 {
		t.Fatalf("plan has %d bins, want a multi-bin plan", len(p.Bins))
	}
	for _, ba := range p.Bins {
		if ba.Groups < 2 {
			t.Fatalf("bin %d has %d groups, want several", ba.Bin, ba.Groups)
		}
	}
	ctx := context.Background()
	opt := DefaultGuardOptions()
	opt.Counters = true
	for _, nb := range []int{1, 3, 8} {
		fw := NewFramework(cfg, nil)
		vs, _, wants := batchTestVectors(a, nb, 29)
		exec := func() ([][]float64, *BatchReport) {
			us := make([][]float64, nb)
			for b := range us {
				us[b] = make([]float64, a.Rows)
				for r := range us[b] {
					us[b][r] = math.NaN()
				}
			}
			brep, err := fw.ExecutePlanBatchOpts(ctx, p, a, vs, us, opt)
			if err != nil {
				t.Fatalf("B=%d: %v", nb, err)
			}
			return us, brep
		}
		_, cold := exec()
		us, warm := exec()
		label := fmt.Sprintf("B=%d warm", nb)
		assertBitsEqual(t, label, wants, us)
		for _, pr := range warm.Shared.Profiles {
			if !pr.Replayed {
				t.Errorf("%s: bin %d simulated again", label, pr.Bin)
			}
		}
		assertReportsEqual(t, label, cold.Shared, warm.Shared)
		if warm.Isolated != 0 || warm.Shared.Degraded() {
			t.Errorf("%s: clean warm run degraded: isolated=%d %v", label, warm.Isolated, warm.Shared)
		}
	}
}

// TestReplayConcurrentFirstRequests races 8 first requests of one plan on a
// cold Framework (run under -race): whichever of them simulate store the
// same bytes, so every request returns the cold reference result.
func TestReplayConcurrentFirstRequests(t *testing.T) {
	fw := guardFramework(t)
	a, _, _ := guardMatrix()
	p, err := fw.Plan(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	const nb, clients = 3, 8
	opt := DefaultGuardOptions()
	opt.Counters = true
	vs, wantUs, _ := batchTestVectors(a, nb, 9)
	want, err := NewFramework(fw.Cfg, fw.Model()).ExecutePlanBatchOpts(context.Background(), p, a, vs, wantUs, opt)
	if err != nil {
		t.Fatal(err)
	}

	us := make([][][]float64, clients)
	reps := make([]*BatchReport, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		_, us[c], _ = batchTestVectors(a, nb, 9)
		wg.Add(1)
		go func() {
			defer wg.Done()
			reps[c], errs[c] = fw.ExecutePlanBatchOpts(context.Background(), p, a, vs, us[c], opt)
		}()
	}
	wg.Wait()
	for c := 0; c < clients; c++ {
		if errs[c] != nil {
			t.Fatalf("client %d: %v", c, errs[c])
		}
		assertBitsEqual(t, fmt.Sprintf("client %d", c), wantUs, us[c])
		assertBatchReportsEqual(t, fmt.Sprintf("client %d", c), want, reps[c])
	}
	if sim, rep := fw.LaunchCounts(); sim < int64(len(p.Bins)) || sim+rep != int64(clients*len(p.Bins)) {
		t.Errorf("%d simulated + %d replayed launches, want %d in total and at least %d simulated", sim, rep, clients*len(p.Bins), len(p.Bins))
	}
}

// TestReplayArmedFaultsBypassMemo: an armed launch never reads or writes the
// memo, so a faulted execution degrades on a warm Framework exactly as on a
// cold one and leaves the warm memo as it found it.
func TestReplayArmedFaultsBypassMemo(t *testing.T) {
	cold := guardFramework(t)
	a, v, want := guardMatrix()
	p, err := cold.Plan(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		fault hsa.Fault
	}{
		{"nan-poison", hsa.Fault{Class: hsa.FaultNaNPoison}},
		{"lds-overflow", hsa.Fault{Class: hsa.FaultLDSOverflow}},
		{"cycle-budget", hsa.Fault{Class: hsa.FaultCycleBudget}},
		{"transient", hsa.Fault{Class: hsa.FaultCycleBudget, Transient: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := DefaultGuardOptions()
			opt.Backoff = time.Microsecond
			opt.Counters = true
			clean := opt
			opt.Faults = hsa.NewFaultPlan().AddFault(tc.fault)

			uCold := make([]float64, a.Rows)
			repCold, err := NewFramework(cold.Cfg, cold.Model()).ExecutePlanOpts(context.Background(), p, a, v, uCold, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !repCold.Degraded() {
				t.Fatal("the fault plan did not degrade the cold run")
			}

			warm := NewFramework(cold.Cfg, cold.Model())
			u := make([]float64, a.Rows)
			if _, err := warm.ExecutePlanOpts(context.Background(), p, a, v, u, clean); err != nil {
				t.Fatal(err)
			}
			cells := warm.launches.Len()
			if cells != len(p.Bins) {
				t.Fatalf("clean run memoized %d cells, want %d", cells, len(p.Bins))
			}
			_, replayedBefore := warm.LaunchCounts()
			repWarm, err := warm.ExecutePlanOpts(context.Background(), p, a, v, u, opt)
			if err != nil {
				t.Fatal(err)
			}
			assertReportsEqual(t, "warm vs cold", repCold, repWarm)
			if i := sparse.FirstVecDiff(want, u, 1e-9); i >= 0 {
				t.Errorf("degraded result wrong at row %d", i)
			}
			if got := warm.launches.Len(); got != cells {
				t.Errorf("faulted run changed the memo: %d cells, was %d", got, cells)
			}
			// A persistent fault arms every attempt: nothing may replay. The
			// transient one clears on the retry, which is a clean launch of
			// a warm cell.
			_, replayed := warm.LaunchCounts()
			if wantReplays := map[bool]int64{false: 0, true: int64(len(p.Bins))}[tc.fault.Transient > 0]; replayed-replayedBefore != wantReplays {
				t.Errorf("%d launches replayed under the fault plan, want %d", replayed-replayedBefore, wantReplays)
			}
		})
	}
}

// TestReplayWarmCellHonorsCancellation: a canceled context is refused on a
// warm plan exactly as on a cold one — by the entry check, and by the check
// ahead of every launch attempt.
func TestReplayWarmCellHonorsCancellation(t *testing.T) {
	fw := guardFramework(t)
	a, v, _ := guardMatrix()
	p, err := fw.Plan(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	u := make([]float64, a.Rows)
	if _, err := fw.ExecutePlanOpts(context.Background(), p, a, v, u, DefaultGuardOptions()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := fw.ExecutePlanOpts(ctx, p, a, v, u, DefaultGuardOptions()); !errors.Is(err, ErrCanceled) {
		t.Errorf("warm plan under a canceled context: %v, want ErrCanceled", err)
	}
	bn, err := p.Rebin(a)
	if err != nil {
		t.Fatal(err)
	}
	_, replayedBefore := fw.LaunchCounts()
	want := make([]float64, a.Rows)
	err = fw.runBinsGuarded(ctx, a, [][]float64{v}, [][]float64{u}, [][]float64{want}, bn,
		func(binID int) int { kid, _ := p.KernelFor(binID); return kid }, fw.replayScope(p, false), DefaultGuardOptions(), &ExecReport{}, nil)
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("warm bin loop under a canceled context: %v, want ErrCanceled", err)
	}
	if _, replayed := fw.LaunchCounts(); replayed != replayedBefore {
		t.Errorf("%d launches replayed under a canceled context", replayed-replayedBefore)
	}
}

// TestReplayStalePlanNeverMemoized: a plan whose binning cannot be rebuilt
// degrades to the single-bin serial strategy; those launches are not the
// plan's cells and must neither fill nor read the memo.
func TestReplayStalePlanNeverMemoized(t *testing.T) {
	fw := guardFramework(t)
	a, v, _ := guardMatrix()
	p, err := fw.Plan(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	stale := *p
	stale.Bins = nil
	u := make([]float64, a.Rows)
	for run := 0; run < 2; run++ {
		rep, err := fw.ExecutePlanOpts(context.Background(), &stale, a, v, u, DefaultGuardOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !rep.DecisionFallback {
			t.Fatal("stale plan did not report decision fallback")
		}
		for _, pr := range rep.Profiles {
			if pr.Replayed {
				t.Errorf("run %d: stale plan's bin %d replayed", run, pr.Bin)
			}
		}
	}
	if n := fw.launches.Len(); n != 0 {
		t.Errorf("stale plan memoized %d cells", n)
	}
}

// TestExecutePlanWarmAllocs pins the warm serve path's allocations at
// launch widths 1 and 8: the report, its bin and profile slices and the
// rebuilt binning — a count set by the number of bins — and no buffer
// proportional to the matrix's rows (the reference slab is pooled, and a
// replayed bin is copied from it).
func TestExecutePlanWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime instruments sync.Pool with allocations of its own")
	}
	// One P, as inside AllocsPerRun: the warm-up run then grows the pooled
	// reference slab that every measured run gets back.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	a := matgen.Mixed(4000, 4000, 25, []int{2, 60}, 7)
	fw := NewFramework(testConfig(), nil)
	p := uniformPlan(fw.Cfg, a, 0)
	opt := DefaultGuardOptions()
	for _, nb := range []int{1, 8} {
		vs, us, _ := batchTestVectors(a, nb, 17)
		run := func() {
			var err error
			if nb == 1 {
				_, err = fw.ExecutePlanOpts(context.Background(), p, a, vs[0], us[0], opt)
			} else {
				_, err = fw.ExecutePlanBatchOpts(context.Background(), p, a, vs, us, opt)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		run()
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(runs, run)
		runtime.ReadMemStats(&after)
		bytesPerRun := (after.TotalAlloc - before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once
		t.Logf("warm execution B=%d: %.0f allocs, %d bytes per call (%d bins, %d rows)", nb, allocs, bytesPerRun, len(p.Bins), a.Rows)
		if limit := float64(24 + 10*len(p.Bins)); allocs > limit {
			t.Errorf("warm execution B=%d allocates %.0f times at %d bins, want <= %.0f", nb, allocs, len(p.Bins), limit)
		}
		if bytesPerRun >= uint64(8*a.Rows) {
			t.Errorf("warm execution B=%d allocates %d bytes per call: a row-sized buffer (%d bytes) is back on the serve path", nb, bytesPerRun, 8*a.Rows)
		}
	}
}
