// Command spmvtune is the user-facing CLI of the auto-tuning SpMV
// framework:
//
//	spmvtune features -in m.mtx            # Table I feature extraction
//	spmvtune bin -in m.mtx -u 100          # show the binning layout
//	spmvtune train -out model.json         # offline training pipeline
//	spmvtune predict -in m.mtx -model model.json [-plan]
//	spmvtune run -in m.mtx -model model.json
//	spmvtune compare -in m.mtx -model model.json
//	spmvtune gen -kind road -rows 100000 -out m.mtx
//	spmvtune retrain -dir rows/ -model model.json -out next.json
//
// Inputs are Matrix Market files; `gen` produces synthetic matrices from
// the built-in generators when no real inputs are at hand.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"spmvtune/internal/binning"
	"spmvtune/internal/c50"
	"spmvtune/internal/core"
	"spmvtune/internal/csradaptive"
	"spmvtune/internal/features"
	"spmvtune/internal/formats"
	"spmvtune/internal/matgen"
	"spmvtune/internal/mmio"
	"spmvtune/internal/plan"
	"spmvtune/internal/retrain"
	"spmvtune/internal/sparse"
	"spmvtune/internal/trace"
)

// counterImbalance returns the profile's load-imbalance figure, or 0 when
// counters were not collected.
func counterImbalance(pr plan.ExecProfile) float64 {
	if pr.Counters == nil {
		return 0
	}
	return pr.Counters.LoadImbalance()
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "features":
		err = cmdFeatures(os.Args[2:])
	case "bin":
		err = cmdBin(os.Args[2:])
	case "train":
		err = cmdTrain(os.Args[2:])
	case "predict":
		err = cmdPredict(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	case "gen":
		err = cmdGen(os.Args[2:])
	case "convert":
		err = cmdConvert(os.Args[2:])
	case "retrain":
		err = cmdRetrain(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "spmvtune:", err)
		os.Exit(exitCode(err))
	}
}

// Exit codes distinguish the failure classes so scripts can react without
// parsing stderr: 1 generic, 2 usage, 3 invalid matrix input, 4 kernel
// fault, 5 cycle-budget exhaustion, 6 canceled or timed out. Budget is
// checked before the general kernel-fault class because budget faults
// match both sentinels.
func exitCode(err error) int {
	switch {
	case errors.Is(err, core.ErrInvalidMatrix):
		return 3
	case errors.Is(err, core.ErrBudgetExceeded):
		return 5
	case errors.Is(err, core.ErrKernelFault):
		return 4
	case errors.Is(err, core.ErrCanceled):
		return 6
	}
	return 1
}

// withTimeout builds the command context: a zero timeout means no limit.
func withTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), d)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: spmvtune <command> [flags]

commands:
  features  extract Table I feature parameters from a matrix
  bin       show the coarse binning layout for a granularity U
  train     run the offline training pipeline, save the model
  predict   print the predicted (U, per-bin kernel) strategy
  run       execute the auto-tuned SpMV on the simulated device
  compare   auto vs kernel-serial, kernel-vector and CSR-Adaptive
  gen       generate a synthetic matrix into a Matrix Market file
  convert   report per-format storage footprints and conversion feasibility
  retrain   replay a spmvd row store offline: train a candidate, gate it
            on held-out regret against the incumbent, save it if it wins`)
	os.Exit(2)
}

func loadMatrix(path string) (*sparse.CSR, error) {
	if path == "" {
		return nil, fmt.Errorf("-in is required")
	}
	return mmio.ReadFile(path)
}

func onesVec(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

func cmdFeatures(args []string) error {
	fs := flag.NewFlagSet("features", flag.ExitOnError)
	in := fs.String("in", "", "input Matrix Market file")
	fs.Parse(args)
	a, err := loadMatrix(*in)
	if err != nil {
		return err
	}
	fmt.Println(features.Extract(a))
	return nil
}

func cmdBin(args []string) error {
	fs := flag.NewFlagSet("bin", flag.ExitOnError)
	in := fs.String("in", "", "input Matrix Market file")
	u := fs.Int("u", 100, "granularity unit U")
	fs.Parse(args)
	a, err := loadMatrix(*in)
	if err != nil {
		return err
	}
	b := binning.Coarse(a, *u, binning.DefaultMaxBins)
	fmt.Printf("U=%d, %d non-empty bins\n", *u, len(b.NonEmpty()))
	for _, id := range b.NonEmpty() {
		fmt.Printf("  bin %-3d workload [%7d,%7d): %8d rows in %d groups\n",
			id, id**u, (id+1)**u, b.NumRows(id), len(b.Bins[id]))
	}
	return nil
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	out := fs.String("out", "model.json", "output model file")
	corpus := fs.Int("corpus", 240, "synthetic corpus size")
	minRows := fs.Int("minrows", 512, "smallest corpus matrix (0 = 512)")
	maxRows := fs.Int("maxrows", 8192, "largest corpus matrix (0 = 8192)")
	seed := fs.Int64("seed", 42, "corpus seed")
	workers := fs.Int("workers", 0, "host goroutines for the exhaustive tuning search (0 = GOMAXPROCS, 1 = sequential; labels are identical for every value)")
	space := fs.String("kernel-space", "", "kernel space the search enumerates and the model predicts over: 'pool' or '' = the paper's nine kernels, 'synth' = the synthesized parameter space")
	fs.Parse(args)

	cfg := core.DefaultConfig()
	cfg.Workers = *workers
	cfg.KernelSpace = *space
	if _, err := cfg.Space(); err != nil {
		return err
	}
	co, err := matgen.CorpusOptions{N: *corpus, MinRows: *minRows, MaxRows: *maxRows, Seed: *seed}.WithDefaultBounds()
	if err != nil {
		return err
	}
	mats := matgen.ValueFreeCorpus(co)
	td := core.NewTrainingData(cfg)
	td.AddMatrices(cfg, matgen.Matrices(mats))
	fmt.Printf("labeled %d matrices\n", len(mats))
	td.Finalize()
	tr1, te1 := td.Stage1.Split(0.75, *seed)
	tr2, te2 := td.Stage2.Split(0.75, *seed)
	m := core.TrainModel(&core.TrainingData{Stage1: tr1, Stage2: tr2, Us: td.Us}, cfg, defaultTree())
	e1, e2 := m.Errors(&core.TrainingData{Stage1: te1, Stage2: te2, Us: td.Us})
	fmt.Printf("stage1 error %.1f%%, stage2 error %.1f%% (held-out)\n", 100*e1, 100*e2)
	if err := core.SaveModel(*out, m); err != nil {
		return err
	}
	fmt.Printf("model saved to %s\n", *out)
	return nil
}

func cmdPredict(args []string) error {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	in := fs.String("in", "", "input Matrix Market file")
	model := fs.String("model", "model.json", "trained model file")
	asPlan := fs.Bool("plan", false, "print the full TuningPlan as JSON (features, U, per-bin kernels) without executing")
	fs.Parse(args)
	a, err := loadMatrix(*in)
	if err != nil {
		return err
	}
	m, err := core.LoadModel(*model)
	if err != nil {
		return err
	}
	fw := core.NewFramework(core.DefaultConfig(), m)
	if *asPlan {
		p, err := fw.Plan(context.Background(), a)
		if err != nil {
			return err
		}
		blob, err := p.Encode()
		if err != nil {
			return err
		}
		fmt.Println(string(blob))
		return nil
	}
	d, b := fw.Decide(a)
	fmt.Println(features.Extract(a))
	fmt.Println("decision:", d)
	fmt.Printf("bins populated: %d of up to %d\n", len(b.NonEmpty()), len(b.Bins))
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	in := fs.String("in", "", "input Matrix Market file")
	model := fs.String("model", "model.json", "trained model file")
	timeout := fs.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
	tracePath := fs.String("trace", "", "write JSONL pipeline spans to this file ('-' for stdout); deterministic — identical runs emit identical bytes")
	counters := fs.Bool("counters", false, "collect device performance counters and print per-bin execution profiles")
	workers := fs.Int("workers", 1, "host goroutines serving independent bins in the guarded executor (1 = sequential; the result and report are identical for every value)")
	searchStats := fs.Bool("search-stats", false, "run the exhaustive tuning search on the matrix and print cost-cache and parameter-space statistics (hits/misses/pruned cells, space size, synth wins) before executing")
	space := fs.String("kernel-space", "", "kernel space the -search-stats search enumerates: 'pool' or '' = the paper's nine kernels, 'synth' = the synthesized parameter space")
	fs.Parse(args)
	a, err := loadMatrix(*in)
	if err != nil {
		return err
	}
	m, err := core.LoadModel(*model)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	fw := core.NewFramework(cfg, m)
	v := onesVec(a.Cols)
	u := make([]float64, a.Rows)
	ctx, cancel := withTimeout(*timeout)
	defer cancel()

	if *searchStats {
		// Drive the exhaustive search the offline tuner runs, against the
		// process-wide shared cost cache, so the cache/pruner effectiveness
		// on this exact matrix is visible before the model-predicted run.
		scfg := cfg
		scfg.Workers = *workers
		// Default the stats search to the space the loaded model predicts
		// over, so the printed statistics describe the search that actually
		// produced this model's labels; -kernel-space overrides.
		scfg.KernelSpace = m.Space
		if *space != "" {
			scfg.KernelSpace = *space
		}
		sp, serr := scfg.Space()
		if serr != nil {
			return serr
		}
		res, serr := core.SearchCtx(ctx, scfg, a)
		if serr != nil {
			return serr
		}
		st := core.SearchCacheStats()
		sps := core.SearchSpaceStats()
		fmt.Printf("search: best U=%d, %.3f ms simulated\n", res.BestU, res.Seconds*1e3)
		fmt.Printf("search-space: name=%s kernels=%d cells=%d synth-wins=%d\n",
			sp.Name, sp.Size(), sps.SpaceCells, sps.SynthWins)
		fmt.Printf("search-cache: hits=%d misses=%d pruned=%d entries=%d evictions=%d\n",
			st.Hits, st.Misses, st.Pruned, st.Entries, st.Evictions)
	} else if *space != "" {
		return fmt.Errorf("-kernel-space only applies to the -search-stats search (the model's space travels with the model)")
	}

	opt := core.DefaultGuardOptions()
	opt.Counters = *counters
	opt.Workers = *workers
	if *tracePath != "" {
		out := os.Stdout
		if *tracePath != "-" {
			f, err := os.Create(*tracePath)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		// Deterministic on purpose: the trace is an artifact of the modeled
		// execution, so two identical runs must emit identical bytes (the
		// property CI diffs against).
		opt.Trace = trace.NewDeterministicWriter(out)
	}

	p, err := fw.PlanTraced(ctx, a, "", opt.Trace, opt.TraceID)
	if err != nil {
		return err
	}
	rep, err := fw.ExecutePlanOpts(ctx, p, a, v, u, opt)
	if err != nil {
		return err
	}
	fmt.Println("decision:", rep.Decision)
	fmt.Printf("simulated: %s\n", rep.Stats)
	fmt.Println(rep)
	if *counters {
		fmt.Println("per-bin execution profiles:")
		for _, pr := range rep.Profiles {
			fmt.Printf("  bin %-3d %-12s %8d rows %10d nnz  %12.0f cycles  lanes %.2f  imbalance %.2f\n",
				pr.Bin, pr.KernelName, pr.Rows, pr.NNZ, pr.Cycles,
				pr.ActiveLaneRatio(), counterImbalance(pr))
		}
	}
	fmt.Println("result verified against the sequential reference")
	return nil
}

func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	in := fs.String("in", "", "input Matrix Market file")
	model := fs.String("model", "model.json", "trained model file")
	timeout := fs.Duration("timeout", 0, "abort the comparison after this duration (0 = no limit)")
	fs.Parse(args)
	a, err := loadMatrix(*in)
	if err != nil {
		return err
	}
	m, err := core.LoadModel(*model)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	fw := core.NewFramework(cfg, m)
	v := onesVec(a.Cols)
	u := make([]float64, a.Rows)
	ctx, cancel := withTimeout(*timeout)
	defer cancel()

	p, err := fw.Plan(ctx, a)
	if err != nil {
		return err
	}
	rep, err := fw.ExecutePlanOpts(ctx, p, a, v, u, core.DefaultGuardOptions())
	if err != nil {
		return err
	}
	d, auto := rep.Decision, rep.Stats
	serial, _ := core.SimulateSingleKernel(cfg.Device, a, v, u, 0)
	vector, _ := core.SimulateSingleKernel(cfg.Device, a, v, u, 8)
	adaptive := csradaptive.SimulateSpMV(cfg.Device, a, v, u, 0)

	fmt.Println("decision:     ", d)
	fmt.Printf("kernel-auto:   %10.3f ms\n", auto.Seconds*1e3)
	issue := auto.CyclesALU + auto.CyclesLDS + auto.CyclesMem + auto.CyclesBarrier
	if issue > 0 {
		fmt.Printf("  issue breakdown: alu %.0f%%, lds %.0f%%, mem %.0f%%, barrier %.0f%% (cache hit rate %.0f%%)\n",
			100*auto.CyclesALU/issue, 100*auto.CyclesLDS/issue,
			100*auto.CyclesMem/issue, 100*auto.CyclesBarrier/issue,
			100*float64(auto.CacheHits)/float64(auto.CacheHits+auto.CacheMisses+1))
	}
	fmt.Printf("kernel-serial: %10.3f ms (%.2fx vs auto)\n", serial.Seconds*1e3, serial.Seconds/auto.Seconds)
	fmt.Printf("kernel-vector: %10.3f ms (%.2fx vs auto)\n", vector.Seconds*1e3, vector.Seconds/auto.Seconds)
	fmt.Printf("csr-adaptive:  %10.3f ms (%.2fx vs auto)\n", adaptive.Seconds*1e3, adaptive.Seconds/auto.Seconds)
	return nil
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	kind := fs.String("kind", "road", "generator: road|banded|powerlaw|blockfem|bipartite|single")
	rows := fs.Int("rows", 100000, "number of rows")
	param := fs.Int("param", 0, "generator parameter (band width / avg degree / block width / row length)")
	seed := fs.Int64("seed", 1, "generator seed")
	out := fs.String("out", "matrix.mtx", "output Matrix Market file")
	fs.Parse(args)

	var a *sparse.CSR
	switch *kind {
	case "road":
		a = matgen.RoadNetwork(*rows, *seed)
	case "banded":
		p := *param
		if p <= 0 {
			p = 7
		}
		a = matgen.Banded(*rows, p, *seed)
	case "powerlaw":
		p := *param
		if p <= 0 {
			p = 4
		}
		a = matgen.PowerLaw(*rows, p, 1.9, 2048, *seed)
	case "blockfem":
		p := *param
		if p <= 0 {
			p = 120
		}
		a = matgen.BlockFEM(*rows, p, p/5, *seed)
	case "bipartite":
		p := *param
		if p <= 0 {
			p = 4
		}
		a = matgen.Bipartite(*rows, *rows/4+1, p, *seed)
	case "single":
		a = matgen.SingleNNZRows(*rows, *rows, *seed)
	default:
		return fmt.Errorf("unknown generator %q", *kind)
	}
	if err := mmio.WriteFile(*out, a, fmt.Sprintf("synthetic %s matrix, seed %d", *kind, *seed)); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %dx%d, %d non-zeros (%s)\n", *out, a.Rows, a.Cols, a.NNZ(), features.Extract(a))
	return nil
}

func defaultTree() c50.Options { return c50.DefaultOptions() }

func cmdConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	in := fs.String("in", "", "input Matrix Market file")
	fs.Parse(args)
	a, err := loadMatrix(*in)
	if err != nil {
		return err
	}
	fb := formats.Bytes(a)
	fmt.Printf("%s\n", features.Extract(a))
	for _, name := range []string{"csr", "coo", "ell", "dia", "hyb"} {
		if sz, ok := fb[name]; ok {
			fmt.Printf("%-4s %12d bytes (%.2fx of CSR)\n", name, sz, float64(sz)/float64(fb["csr"]))
		} else {
			fmt.Printf("%-4s rejected (padding blow-up or too many diagonals)\n", name)
		}
	}
	return nil
}

// cmdRetrain replays a row store written by spmvd -retrain-dir through the
// same aggregate → train → regret-gate pipeline the daemon runs online, but
// offline: useful for vetting a night of traffic before rolling a model, or
// for retraining a fleet from one member's rows.
func cmdRetrain(args []string) error {
	fs := flag.NewFlagSet("retrain", flag.ExitOnError)
	dir := fs.String("dir", "", "row-store directory written by spmvd -retrain-dir")
	modelPath := fs.String("model", "", "incumbent model file (empty: gate against no incumbent)")
	out := fs.String("out", "model.json", "where to save the candidate if it gates in")
	minRows := fs.Int("min-rows", 64, "refuse to train on fewer rows than this")
	slack := fs.Float64("slack", 0.01, "tolerated geomean-regret slack over the incumbent")
	force := fs.Bool("force", false, "save the candidate even if the regret gate would reject it")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("-dir is required")
	}
	store, err := retrain.OpenStore(retrain.StoreOptions{Dir: *dir})
	if err != nil {
		return err
	}
	loaded, err := store.Load()
	if err != nil {
		return err
	}
	var incumbent *core.Model
	if *modelPath != "" {
		if incumbent, err = core.LoadModel(*modelPath); err != nil {
			return err
		}
	}
	effSlack := *slack
	if *force {
		effSlack = 1e18 // any trainable candidate passes the gate
	}
	var promoted *core.Model
	svc, err := retrain.New(retrain.Config{
		Framework:   core.NewFramework(core.DefaultConfig(), incumbent),
		Store:       store,
		Synchronous: true,
		MinRows:     *minRows,
		RegretSlack: effSlack,
		Promote:     func(m *core.Model, version string) { promoted = m },
		Logf: func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		},
	})
	if err != nil {
		return err
	}
	res, err := svc.RetrainOnce(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("rows %d, outcome %s", len(loaded), res.Outcome)
	if res.Reason != "" {
		fmt.Printf(" (%s)", res.Reason)
	}
	fmt.Println()
	if res.Candidate.N > 0 {
		fmt.Printf("candidate regret: geomean %.4f, worst %.4f over %d held-out matrices\n",
			res.Candidate.GeoMean, res.Candidate.Worst, res.Candidate.N)
	}
	if res.Incumbent.N > 0 {
		fmt.Printf("incumbent regret: geomean %.4f, worst %.4f\n",
			res.Incumbent.GeoMean, res.Incumbent.Worst)
	}
	switch res.Outcome {
	case "promoted":
		if err := core.SaveModel(*out, promoted); err != nil {
			return err
		}
		fmt.Printf("model version %s saved to %s\n", res.Version, *out)
	case "unchanged":
		fmt.Println("candidate is identical to the incumbent; nothing saved")
	case "skipped":
		return fmt.Errorf("retrain skipped: %s", res.Reason)
	case "rejected":
		return fmt.Errorf("candidate rejected by the regret gate (rerun with -force to save it anyway)")
	}
	return nil
}
