package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"spmvtune/internal/binning"
	"spmvtune/internal/c50"
	"spmvtune/internal/core"
	"spmvtune/internal/cpu"
	"spmvtune/internal/features"
	"spmvtune/internal/kernels"
	"spmvtune/internal/matgen"
	"spmvtune/internal/mmio"
	"spmvtune/internal/plan"
	"spmvtune/internal/plancache"
	"spmvtune/internal/server"
	"spmvtune/internal/solvers"
	"spmvtune/internal/sparse"
)

// The traced pass times calls into each module's exported functions, in
// this process, on the matrices and vectors the daemon just served. The
// span names are the functions called; the per-layer metric built from each
// is in layerSpans.

const (
	replayOps = 20 // ops replayed over the socket and re-enacted in-process
	offPathN  = 3  // repeats of the layer calls that are not on the op's path
	batchB    = 8  // width of the fused-launch and SpMM measurements
)

// localModel rebuilds the daemon's bootstrap model in this process: the
// same corpus, search and C5.0 fit as cmd/spmvd's obtainModel with
// -corpus 24. It is the only place the offline pipeline (core.Search,
// plancache.CostCache, c50) gets a wall-clock number; checkParity proves
// the copy has not drifted from the daemon's.
func localModel(tr *tracer) (fw *core.Framework, searchS, trainS float64) {
	cfg := core.DefaultConfig()
	mats := matgen.Corpus(matgen.CorpusOptions{N: 24, MinRows: 256, MaxRows: 2048, Seed: 42})
	// A daemon starts with a cold search-cost cache; the process-wide one
	// here is warm from the suite's second workload on.
	search := cfg
	search.SearchCache = plancache.NewCostCache(plancache.CostCacheOptions{})
	td := core.NewTrainingData(search)
	searchS = tr.timed("bootstrap", "core.TrainingData.AddMatrix", 0, false, func() {
		for _, cm := range mats {
			td.AddMatrix(search, cm.A)
		}
	}) / 1e3
	var m *core.Model
	trainS = tr.timed("bootstrap", "core.TrainModel", 0, false, func() {
		m = core.TrainModel(td, cfg, c50.DefaultOptions())
	}) / 1e3
	return core.NewFramework(cfg, m), searchS, trainS
}

// checkParity aborts the run unless the in-process model is the daemon's:
// same model version, and the same plan for the resident matrix. Layer
// timings of a different plan would describe a different system.
func checkParity(ctx context.Context, c *client, matrix string, local *plan.TuningPlan) error {
	out, err := c.do(ctx, "GET", "/v1/plans/"+matrix, "", nil)
	if err != nil {
		return err
	}
	served, err := plan.Decode(out)
	if err != nil {
		return fmt.Errorf("parity: decode daemon plan: %w", err)
	}
	if served.ModelVersion != local.ModelVersion {
		return fmt.Errorf("parity: daemon model %s, in-process model %s: the bootstrap recipe in bench/ has drifted from cmd/spmvd",
			served.ModelVersion, local.ModelVersion)
	}
	sj, _ := json.Marshal(served.Bins) // plain structs: cannot fail
	lj, _ := json.Marshal(local.Bins)
	if served.Fingerprint != local.Fingerprint || served.U != local.U || !bytes.Equal(sj, lj) {
		return fmt.Errorf("parity: daemon plan %s u=%d differs from in-process plan %s u=%d",
			served.Fingerprint, served.U, local.Fingerprint, local.U)
	}
	return nil
}

// layerEnv is what the in-process calls share across one traced pass.
type layerEnv struct {
	tr    *tracer
	fw    *core.Framework
	cache *plancache.Cache // warm: holds every plan it is asked for
	opt   core.GuardOptions
}

func newLayerEnv(tr *tracer, fw *core.Framework) *layerEnv {
	opt := core.DefaultGuardOptions()
	opt.Counters = true // as the daemon runs it
	return &layerEnv{tr: tr, fw: fw, cache: plancache.New(plancache.Options{}), opt: opt}
}

// coldPath times what the daemon does once per new structure: parse the
// upload, fingerprint it, and tune. features and binning are timed on their
// own as well as inside core.Plan, which calls both.
func (e *layerEnv) coldPath(ctx context.Context, trace string, parent int, mtx []byte) (*sparse.CSR, *plan.TuningPlan, error) {
	var a *sparse.CSR
	var p *plan.TuningPlan
	var err error
	e.tr.timed(trace, "mmio.ReadWithLimits", parent, false, func() {
		a, err = mmio.ReadWithLimits(bytes.NewReader(mtx), mmio.DefaultLimits())
	})
	if err != nil {
		return nil, nil, fmt.Errorf("re-enact upload: %w", err)
	}
	e.tr.timed(trace, "plan.Fingerprint", parent, false, func() { plan.Fingerprint(a) })
	id := e.tr.start(trace, "core.Framework.Plan", parent, false)
	p, err = e.fw.Plan(ctx, a)
	e.tr.end(id)
	if err != nil {
		return nil, nil, fmt.Errorf("re-enact plan: %w", err)
	}
	e.tr.timed(trace, "features.Extract", id, true, func() { features.Extract(a) })
	e.tr.timed(trace, "binning.Coarse", id, true, func() { binning.Coarse(a, p.U, p.MaxBins) })
	return a, p, nil
}

// hotPath times what the daemon does on every request against a resident
// matrix: decode, plan lookup, guarded execution, encode. The four calls
// under core.ExecutePlanOpts repeat its internals one by one — it validates
// the matrix, rebuilds the binning from the plan, computes the reference
// product, and launches each bin's kernel on the simulated device — so its
// self time is what the guard adds on top. cpu.MulVecNNZ is the floor: the
// same product natively, one worker.
func (e *layerEnv) hotPath(ctx context.Context, trace string, parent int, w workload, a *sparse.CSR, p *plan.TuningPlan, in *opInput) error {
	var err error
	e.tr.timed(trace, "server.codec.decode", parent, false, func() {
		if w.kind == kindSolve {
			err = json.Unmarshal(iterateBody, new(server.IterateRequest))
		} else {
			err = json.Unmarshal(in.body, new(server.SpMVRequest))
		}
	})
	if err != nil {
		return fmt.Errorf("re-enact decode: %w", err)
	}
	e.tr.timed(trace, "plancache.GetOrCompute", parent, false, func() {
		_, _, err = e.cache.GetOrCompute(ctx, p.Fingerprint, func(context.Context) (*plan.TuningPlan, error) { return p, nil })
	})
	if err != nil {
		return fmt.Errorf("re-enact plan lookup: %w", err)
	}

	v, u := in.vecs[0], make([]float64, a.Rows)
	id := e.tr.start(trace, "core.ExecutePlanOpts", parent, false)
	_, err = e.fw.ExecutePlanOpts(ctx, p, a, v, u, e.opt)
	e.tr.end(id)
	if err != nil {
		return fmt.Errorf("re-enact execute: %w", err)
	}
	if i := sparse.FirstVecDiff(u, in.refs[0], verifyTol); i >= 0 {
		return fmt.Errorf("re-enact execute: in-process result differs from the reference at row %d", i)
	}
	e.tr.timed(trace, "sparse.Validate", id, true, func() { err = a.Validate() })
	var b *binning.Binning
	e.tr.timed(trace, "plan.Rebin", id, true, func() { b, err = p.Rebin(a) })
	if err != nil {
		return fmt.Errorf("re-enact rebin: %w", err)
	}
	e.tr.timed(trace, "sparse.MulVec", id, true, func() { a.MulVec(v, u) })
	e.tr.timed(trace, "kernels.launch", id, true, func() {
		for _, ba := range p.Bins {
			if info, ok := kernels.ByID(ba.Kernel); ok {
				core.SimulateKernel(e.fw.Cfg.Device, a, v, u, info.Kernel, b.Bins[ba.Bin])
			}
		}
	})

	if w.vectors > 1 {
		if err := e.batch(ctx, trace, parent, a, p, in.vecs); err != nil {
			return err
		}
	}
	e.tr.timed(trace, "server.codec.encode", parent, false, func() {
		switch {
		case w.kind == kindSolve:
			_, err = json.Marshal(sessionReply{Session: "sv-00000001", Iterations: solveSteps})
		case w.vectors > 1:
			_, err = json.Marshal(spmvReply{Results: in.refs})
		default:
			_, err = json.Marshal(spmvReply{Result: in.refs[0]})
		}
	})
	if err != nil {
		return fmt.Errorf("re-enact encode: %w", err)
	}
	e.tr.timed(trace, "cpu.MulVecNNZ", parent, false, func() { cpu.MulVecNNZ(a, v, u, 1) })
	return nil
}

// batch times the fused multi-vector executor and the native SpMM floor at
// the same width.
func (e *layerEnv) batch(ctx context.Context, trace string, parent int, a *sparse.CSR, p *plan.TuningPlan, vs [][]float64) error {
	us := make([][]float64, len(vs))
	for k := range us {
		us[k] = make([]float64, a.Rows)
	}
	var err error
	e.tr.timed(trace, "core.ExecutePlanBatchOpts", parent, false, func() {
		_, err = e.fw.ExecutePlanBatchOpts(ctx, p, a, vs, us, e.opt)
	})
	if err != nil {
		return fmt.Errorf("re-enact batch execute: %w", err)
	}
	e.tr.timed(trace, "cpu.SpMM", parent, false, func() { err = cpu.SpMM(a, vs, us, 1, nil) })
	return err
}

// cgRun is one in-process CG solve to tolerance over the reference
// product.
type cgRun struct {
	iterations  int
	minStepMs   float64
	totalMs     float64
	relResidual float64 // true ‖Ax−b‖/‖b‖ of the solution
}

// solveCG runs solvers.CGStepper — the stepper the daemon's sessions use —
// over solvers.Lift(a.MulVec), timing every Step.
func solveCG(ctx context.Context, tr *tracer, trace string, a *sparse.CSR, b []float64) (cgRun, error) {
	x := make([]float64, a.Cols)
	st, err := solvers.NewCGStepper(solvers.Lift(a.MulVec), b, x, solveTol)
	if err != nil {
		return cgRun{}, err
	}
	run := cgRun{}
	id := tr.start(trace, "solvers.CG", 0, false)
	t0 := time.Now()
	for !st.Status().Converged {
		if st.Status().Iterations >= solveMaxIter {
			return run, fmt.Errorf("in-process CG not converged after %d iterations", solveMaxIter)
		}
		s0 := time.Now()
		if _, err := st.Step(ctx); err != nil {
			return run, fmt.Errorf("in-process CG: %w", err)
		}
		if ms := float64(time.Since(s0).Nanoseconds()) / 1e6; run.minStepMs == 0 || ms < run.minStepMs {
			run.minStepMs = ms
		}
	}
	run.totalMs = float64(time.Since(t0).Nanoseconds()) / 1e6
	tr.end(id)
	run.iterations = st.Status().Iterations
	run.relResidual = relResidual(a, st.Solution(), b)
	return run, nil
}

// offPath times, a few times each, the layer calls that are not on this
// workload's op path, so every layer has a number on every workload: the
// cold path for a warm workload, the fused executor for a single-vector
// one, and a CG solve (on the solve_iterate system) for all.
func (e *layerEnv) offPath(ctx context.Context, in *inputs, p *plan.TuningPlan, seed int64) (cgRun, error) {
	w := in.w
	rng := rand.New(rand.NewSource(subSeed(seed, streamOffPath)))
	var vs [][]float64
	if w.vectors == 1 {
		for k := 0; k < batchB; k++ {
			vs = append(vs, randVec(rng, in.a.Cols))
		}
	}
	sa, sb := in.a, []float64(nil)
	if w.kind == kindSolve {
		sb = in.solves[0].b
	} else {
		sa = poisson2D(poissonGrid)
		sb = randVec(rng, sa.Rows)
	}
	var best cgRun
	for i := 0; i < offPathN; i++ {
		trace := fmt.Sprintf("%s-offpath-%d", w.name, i)
		if w.kind != kindCold {
			if _, _, err := e.coldPath(ctx, trace, 0, in.mtx); err != nil {
				return best, err
			}
		}
		if vs != nil {
			if err := e.batch(ctx, trace, 0, in.a, p, vs); err != nil {
				return best, err
			}
		}
		run, err := solveCG(ctx, e.tr, trace, sa, sb)
		if err != nil {
			return best, err
		}
		if i == 0 || run.totalMs < best.totalMs {
			run.minStepMs = minPositive(run.minStepMs, best.minStepMs)
			best = run
		} else {
			best.minStepMs = minPositive(run.minStepMs, best.minStepMs)
		}
	}
	return best, nil
}

func minPositive(a, b float64) float64 {
	if b <= 0 || (a > 0 && a < b) {
		return a
	}
	return b
}
