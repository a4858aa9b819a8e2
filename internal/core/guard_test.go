package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"spmvtune/internal/binning"
	"spmvtune/internal/c50"
	"spmvtune/internal/hsa"
	"spmvtune/internal/matgen"
	"spmvtune/internal/sparse"
)

// guardFramework trains a tiny model once; every guarded test shares it.
func guardFramework(t testing.TB) *Framework {
	t.Helper()
	cfg := testConfig()
	td := NewTrainingData(cfg)
	td.AddMatrix(cfg, matgen.RoadNetwork(600, 1))
	td.AddMatrix(cfg, matgen.BlockFEM(80, 150, 30, 2))
	return NewFramework(cfg, TrainModel(td, cfg, c50.DefaultOptions()))
}

// runGuarded is the one-shot guarded product the way every caller now
// writes it: Plan (traced with the options' writer), then ExecutePlanOpts.
func runGuarded(ctx context.Context, fw *Framework, a *sparse.CSR, v, u []float64, opt GuardOptions) (Decision, *ExecReport, error) {
	p, err := fw.PlanTraced(ctx, a, "", opt.Trace, opt.TraceID)
	if err != nil {
		return Decision{}, nil, err
	}
	rep, err := fw.ExecutePlanOpts(ctx, p, a, v, u, opt)
	return rep.Decision, rep, err
}

func guardMatrix() (*sparse.CSR, []float64, []float64) {
	a := matgen.Mixed(500, 500, 25, []int{2, 60}, 7)
	v := randVec(a.Cols, 17)
	want := make([]float64, a.Rows)
	a.MulVec(v, want)
	return a, v, want
}

func TestRunGuardedClean(t *testing.T) {
	fw := guardFramework(t)
	a, v, want := guardMatrix()
	u := make([]float64, a.Rows)
	d, rep, err := runGuarded(context.Background(), fw, a, v, u, DefaultGuardOptions())
	if err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	if i := sparse.FirstVecDiff(want, u, 1e-9); i >= 0 {
		t.Errorf("result wrong at row %d", i)
	}
	if rep.Degraded() {
		t.Errorf("clean run reports degradation: %v", rep)
	}
	if rep.DecisionFallback || rep.Retries != 0 || rep.Fallbacks != 0 || rep.CPUServed != 0 {
		t.Errorf("clean run counters: %+v", rep)
	}
	if len(rep.Bins) == 0 || len(d.KernelByBin) == 0 {
		t.Error("empty report or decision")
	}
	if !strings.Contains(rep.String(), "(clean)") {
		t.Errorf("report = %q", rep.String())
	}
}

// The acceptance criterion: for every fault class the guarded run must
// produce the correct, verified u = A·v (through fallbacks) or a typed
// error — never a panic and never a silently wrong result.
func TestRunGuardedEveryFaultClass(t *testing.T) {
	fw := guardFramework(t)
	a, v, want := guardMatrix()

	cases := []struct {
		name  string
		fault hsa.Fault
		// Cycle-budget and NaN poison fire on every launch, so the whole
		// simulated chain fails and the CPU reference must serve every bin.
		// LDS and barrier faults only trigger on kernels that issue those
		// instructions — Kernel-Serial issues neither, so the serial
		// fallback legitimately survives them.
		wantAllCPU bool
	}{
		{"lds-overflow", hsa.Fault{Class: hsa.FaultLDSOverflow}, false},
		{"barrier-divergence", hsa.Fault{Class: hsa.FaultBarrierDivergence}, false},
		{"cycle-budget", hsa.Fault{Class: hsa.FaultCycleBudget}, true},
		{"nan-poison", hsa.Fault{Class: hsa.FaultNaNPoison}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := DefaultGuardOptions()
			opt.Backoff = time.Microsecond
			opt.Faults = hsa.NewFaultPlan().AddFault(tc.fault)
			u := make([]float64, a.Rows)
			d, rep, err := runGuarded(context.Background(), fw, a, v, u, opt)
			if err != nil {
				t.Fatalf("guarded run returned %v, want degraded success", err)
			}
			if i := sparse.FirstVecDiff(want, u, 1e-9); i >= 0 {
				t.Fatalf("result wrong at row %d despite fallback", i)
			}
			if tc.wantAllCPU {
				if rep.CPUServed != len(rep.Bins) {
					t.Errorf("CPUServed = %d, want all %d bins", rep.CPUServed, len(rep.Bins))
				}
				for _, br := range rep.Bins {
					if br.Final != StageCPUReference {
						t.Errorf("bin %d served by %v under a persistent global fault", br.Bin, br.Final)
					}
					last := br.Attempts[len(br.Attempts)-1]
					if last.Stage != StageCPUReference || last.Err != "" {
						t.Errorf("bin %d final attempt = %+v", br.Bin, last)
					}
				}
				return
			}
			// Serial survives LDS/barrier faults: no bin may need the CPU,
			// and any bin predicted with a non-serial kernel must have
			// degraded to the serial fallback.
			if rep.CPUServed != 0 {
				t.Errorf("CPUServed = %d, want 0 (serial is immune)", rep.CPUServed)
			}
			for _, br := range rep.Bins {
				want := StagePredicted
				if d.KernelByBin[br.Bin] != 0 {
					want = StageSerialFallback
				}
				if br.Final != want {
					t.Errorf("bin %d (kernel %d) served by %v, want %v",
						br.Bin, d.KernelByBin[br.Bin], br.Final, want)
				}
			}
		})
	}
}

func TestRunGuardedTransientFaultRetried(t *testing.T) {
	fw := guardFramework(t)
	a, v, want := guardMatrix()
	opt := DefaultGuardOptions()
	opt.Backoff = time.Microsecond
	// Each launch site fails exactly once; the bounded retry must absorb it
	// without ever leaving the predicted kernel.
	opt.Faults = hsa.NewFaultPlan().AddFault(hsa.Fault{Class: hsa.FaultBarrierDivergence, Transient: 1})
	u := make([]float64, a.Rows)
	_, rep, err := runGuarded(context.Background(), fw, a, v, u, opt)
	if err != nil {
		t.Fatalf("guarded run failed: %v", err)
	}
	if i := sparse.FirstVecDiff(want, u, 1e-9); i >= 0 {
		t.Errorf("result wrong at row %d", i)
	}
	if rep.Retries == 0 {
		t.Error("transient fault absorbed without any retry recorded")
	}
	if rep.Fallbacks != 0 || rep.CPUServed != 0 {
		t.Errorf("transient fault escalated: %+v", rep)
	}
	for _, br := range rep.Bins {
		if br.Final != StagePredicted {
			t.Errorf("bin %d final stage %v, want predicted", br.Bin, br.Final)
		}
	}
}

func TestRunGuardedSerialFallback(t *testing.T) {
	fw := guardFramework(t)
	// Long rows so the prediction favors wide kernels.
	a := matgen.BlockFEM(120, 160, 30, 9)
	v := randVec(a.Cols, 3)
	want := make([]float64, a.Rows)
	a.MulVec(v, want)

	opt := DefaultGuardOptions()
	opt.Backoff = time.Microsecond
	// Every kernel except Kernel-Serial faults persistently: bins predicted
	// with a wide kernel must degrade to serial, not to the CPU.
	opt.Faults = hsa.NewFaultPlan()
	for kid := 1; kid <= 8; kid++ {
		opt.Faults.AddKernelFault(kid, hsa.Fault{Class: hsa.FaultLDSOverflow})
	}
	u := make([]float64, a.Rows)
	d, rep, err := runGuarded(context.Background(), fw, a, v, u, opt)
	if err != nil {
		t.Fatalf("guarded run failed: %v", err)
	}
	if i := sparse.FirstVecDiff(want, u, 1e-9); i >= 0 {
		t.Errorf("result wrong at row %d", i)
	}
	if rep.CPUServed != 0 {
		t.Errorf("CPUServed = %d, want 0 (serial fallback suffices)", rep.CPUServed)
	}
	sawFallback := false
	for _, br := range rep.Bins {
		if d.KernelByBin[br.Bin] != 0 {
			if br.Final != StageSerialFallback {
				t.Errorf("bin %d (kernel %d) final %v, want serial fallback",
					br.Bin, d.KernelByBin[br.Bin], br.Final)
			}
			sawFallback = true
		}
	}
	if !sawFallback {
		t.Skip("model predicted serial everywhere; fallback path not exercised")
	}
	if rep.Fallbacks == 0 {
		t.Error("fallbacks not counted")
	}
}

func TestRunGuardedCanceledContext(t *testing.T) {
	fw := guardFramework(t)
	a, v, _ := guardMatrix()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	u := make([]float64, a.Rows)
	_, _, err := runGuarded(ctx, fw, a, v, u, DefaultGuardOptions())
	if err == nil {
		t.Fatal("canceled context produced a result")
	}
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not match the cancellation sentinels", err)
	}
}

func TestRunGuardedDeadline(t *testing.T) {
	fw := guardFramework(t)
	a, v, _ := guardMatrix()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	u := make([]float64, a.Rows)
	_, _, err := runGuarded(ctx, fw, a, v, u, DefaultGuardOptions())
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error %v does not match deadline sentinels", err)
	}
}

func TestRunGuardedInvalidInput(t *testing.T) {
	fw := guardFramework(t)
	a, v, _ := guardMatrix()

	short := make([]float64, a.Rows-1)
	if _, _, err := runGuarded(context.Background(), fw, a, v, short, DefaultGuardOptions()); !errors.Is(err, ErrInvalidMatrix) {
		t.Errorf("short u: error %v, want ErrInvalidMatrix", err)
	}
	if _, _, err := runGuarded(context.Background(), fw, a, v[:a.Cols-1], make([]float64, a.Rows), DefaultGuardOptions()); !errors.Is(err, ErrInvalidMatrix) {
		t.Error("short v accepted")
	}

	bad := &sparse.CSR{Rows: 2, Cols: 2, RowPtr: []int64{0, 1}, ColIdx: []int32{0}, Val: []float64{1}}
	if _, _, err := runGuarded(context.Background(), fw, bad, v, make([]float64, 2), DefaultGuardOptions()); !errors.Is(err, ErrInvalidMatrix) {
		t.Errorf("malformed CSR: error %v, want ErrInvalidMatrix", err)
	}
}

// A broken predict path (here: no model at all) must degrade the decision
// to single-bin Kernel-Serial, not crash or fail the run.
func TestRunGuardedDecisionFallback(t *testing.T) {
	fw := NewFramework(testConfig(), nil)
	a, v, want := guardMatrix()
	u := make([]float64, a.Rows)
	d, rep, err := runGuarded(context.Background(), fw, a, v, u, DefaultGuardOptions())
	if err != nil {
		t.Fatalf("decision fallback failed the run: %v", err)
	}
	if !rep.DecisionFallback {
		t.Error("DecisionFallback not set")
	}
	if d.KernelByBin[0] != 0 {
		t.Errorf("fallback decision %v, want single-bin serial", d)
	}
	if i := sparse.FirstVecDiff(want, u, 1e-9); i >= 0 {
		t.Errorf("result wrong at row %d", i)
	}
	if !strings.Contains(rep.String(), "decision fell back") {
		t.Errorf("report = %q", rep.String())
	}
}

func TestExecReportStringDegraded(t *testing.T) {
	fw := guardFramework(t)
	a, v, _ := guardMatrix()
	opt := DefaultGuardOptions()
	opt.Backoff = time.Microsecond
	opt.Faults = hsa.NewFaultPlan().AddFault(hsa.Fault{Class: hsa.FaultNaNPoison})
	u := make([]float64, a.Rows)
	_, rep, err := runGuarded(context.Background(), fw, a, v, u, opt)
	if err != nil {
		t.Fatal(err)
	}
	s := rep.String()
	for _, frag := range []string{"cpu-served", "served by cpu-reference", "verification failed"} {
		if !strings.Contains(s, frag) {
			t.Errorf("report %q missing %q", s, frag)
		}
	}
}

// A launch whose every vector fails verification must say where: the first
// failing (vector, row) at B > 1, and at B = 1 — which is also how each
// vector is then re-served alone — the historical row-only text.
func TestVerificationFailureNamesVectorAndRow(t *testing.T) {
	fw := guardFramework(t)
	a, _, _ := guardMatrix()
	bn := binning.Single(a)
	const nb, badRow = 3, 7
	vs, us, wants := batchTestVectors(a, nb, 5)
	for b := range wants {
		wants[b][badRow]++ // a wrong oracle fails every vector on every launch
	}
	opt := DefaultGuardOptions()
	opt.Backoff = -1
	rep := &ExecReport{}
	isolated := make([]*ExecReport, nb)
	if err := fw.runBinBatchGuarded(context.Background(), a, vs, us, wants, bn, 0, 0, nil, opt, rep, isolated); err != nil {
		t.Fatal(err)
	}
	wantFused := "core: output verification failed for all 3 vectors, first at vector 0 row 7: " + ErrKernelFault.Error()
	if got := rep.Bins[0].Attempts[0].Err; got != wantFused {
		t.Errorf("fused attempt Err = %q, want %q", got, wantFused)
	}
	wantSingle := "core: output verification failed at row 7: " + ErrKernelFault.Error()
	for b, iso := range isolated {
		if iso == nil {
			t.Fatalf("vector %d was not re-served alone after the fused chain was exhausted", b)
		}
		if got := iso.Bins[0].Attempts[0].Err; got != wantSingle {
			t.Errorf("vector %d single attempt Err = %q, want %q", b, got, wantSingle)
		}
		if iso.CPUServed != 1 {
			t.Errorf("vector %d: CPUServed = %d, want 1", b, iso.CPUServed)
		}
	}
}

func TestStageString(t *testing.T) {
	for st, want := range map[Stage]string{
		StagePredicted:      "predicted",
		StageSerialFallback: "serial-fallback",
		StageCPUReference:   "cpu-reference",
	} {
		if st.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(st), st.String(), want)
		}
	}
}
