// Command spmvload is the wall-clock scoreboard for spmvd: it builds the
// daemon from source, starts it as a subprocess on a loopback socket, drives
// it over HTTP from this one process, verifies every response, and prints
// end-to-end and per-layer metrics by name. See bench/README.md.
//
// One workload, as the benchmark driver runs it (bench/run.sh passes the
// arguments through); the last line of output is one JSON object:
//
//	spmvload -workload spmv_exec -seed 1 -seconds 10 -trace 0   # end-to-end metrics
//	spmvload -workload spmv_exec -seed 1 -seconds 10 -trace 1   # per-layer metrics
//
// The whole suite, every workload measured and then traced on one daemon:
//
//	spmvload -seed 1                    # all five workloads → <out>/results.json
//	spmvload -workloads spmv_exec,cold_upload -smoke
//	spmvload -selfcheck                 # the suite twice; fails if the two disagree
//	spmvload -spread 10                 # ten untraced runs per workload, seeds seed..seed+9
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		one       = flag.String("workload", "", "run this one workload and end with the driver's JSON result line")
		list      = flag.String("workloads", "", "suite mode: comma-separated workloads to run (default: all)")
		seed      = flag.Int64("seed", 1, "seed of every generated input: matrices, vectors, arrival schedule")
		seconds   = flag.Float64("seconds", 10, "length of the measured window")
		warmup    = flag.Duration("warmup", 2*time.Second, "load before the window, discarded")
		trace     = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 runs the traced pass and prints the per-layer metrics")
		out       = flag.String("out", "", "directory for daemon logs, traces and results.json (default: bench/.build/spmvload in the checkout)")
		smoke     = flag.Bool("smoke", false, "2 s windows, one set-up: a quick look, marked non-comparable")
		selfcheck = flag.Bool("selfcheck", false, "run the suite twice and fail if any end-to-end metric differs by more than its bound or any exact count differs")
		spread    = flag.Int("spread", 0, "run each workload this many times untraced, on consecutive seeds, and print each end-to-end metric's quartile spread against its bound")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *smoke {
		*seconds, *warmup = 2, 500*time.Millisecond
	}
	if *seconds <= 0 {
		fatal(errors.New("-seconds must be positive"))
	}

	// SIGINT and SIGTERM cancel the run; every path out of runWorkload
	// stops its daemon and waits for it, so Ctrl-C leaves no orphan spmvd.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	root, err := repoRoot()
	if err != nil {
		fatal(err)
	}
	if *out == "" {
		*out = filepath.Join(root, "bench", ".build", "spmvload")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	bin, err := buildDaemon(ctx, root, *out)
	if err != nil {
		fatal(err)
	}
	opts := runOpts{seconds: *seconds, warmup: *warmup, smoke: *smoke, daemonBin: bin, outDir: *out}
	if *smoke {
		fmt.Println("# SMOKE RUN: 2 s windows, one set-up — numbers are not comparable with any other run")
	}

	if *one != "" {
		w, ok := workloadByName(*one)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q (have %s)", *one, strings.Join(workloadNames(), ", ")))
		}
		if err := driverRun(ctx, w, *seed, *trace == 1, opts); err != nil {
			fatal(err)
		}
		return
	}

	ws, err := selectWorkloads(*list)
	if err != nil {
		fatal(err)
	}
	switch {
	case *spread > 0:
		err = spreadRuns(ctx, ws, *seed, *spread, opts)
	case *selfcheck:
		err = selfCheck(ctx, ws, *seed, opts)
	default:
		opts.traced = true
		var rs []*result
		if rs, err = suite(ctx, ws, *seed, opts); err == nil {
			err = writeResults(filepath.Join(*out, "results.json"), rs, !*smoke)
		}
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spmvload:", err)
	os.Exit(1)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func selectWorkloads(list string) ([]workload, error) {
	if list == "" {
		return workloads, nil
	}
	var ws []workload
	for _, name := range strings.Split(list, ",") {
		w, ok := workloadByName(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
		}
		ws = append(ws, w)
	}
	return ws, nil
}

// printMetrics prints one line per metric: workload, name, value, unit.
func printMetrics(workload string, defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		bound := ""
		if d.bound > 0 {
			bound = fmt.Sprintf("  (%s is better, bound %.2f)", d.better, d.bound)
		}
		fmt.Printf("%-14s %-30s %14.6g %s%s\n", workload, d.name, values[d.name], d.unit, bound)
	}
}

// printRaw prints, beside the restated end-to-end metrics, what the clocks
// read: not metrics of the benchmark, but what a reader at the host sees.
func printRaw(r *result) {
	for _, name := range []string{"setup_s", "ops_per_s", "p50_ms", "p95_ms", "daemon_cpu_ms_per_op", "host.ref_ms"} {
		fmt.Printf("%-14s raw %-26s %14.6g\n", r.Workload, name, r.Raw[name])
	}
}

func printProblems(r *result) {
	for _, n := range r.Notes {
		fmt.Printf("%-14s NOTE: %s\n", r.Workload, n)
	}
	for _, p := range r.Problems {
		fmt.Printf("%-14s PROBLEM: %s\n", r.Workload, p)
	}
}

// driverRun is the benchmark driver's contract: one workload, one kind of
// metric, and one JSON object as the last line of standard output.
func driverRun(ctx context.Context, w workload, seed int64, traced bool, opts runOpts) error {
	opts.traced = traced
	defs, pick := endToEnd, func(r *result) map[string]float64 { return r.EndToEnd }
	if traced {
		defs, pick = perLayer, func(r *result) map[string]float64 { return r.PerLayer }
	}
	r, err := runWorkload(ctx, w, seed, opts)
	if err != nil {
		return err
	}
	printMetrics(w.name, defs, pick(r))
	printRaw(r)
	printProblems(r)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for _, d := range defs {
		line.Metrics[d.name] = value{pick(r)[d.name], d.unit}
	}
	enc, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("result line: %w", err)
	}
	fmt.Println(string(enc))
	return nil
}

// suite runs the workloads one after another, each on a daemon of its own,
// printing every metric as it goes.
func suite(ctx context.Context, ws []workload, seed int64, opts runOpts) ([]*result, error) {
	var rs []*result
	for _, w := range ws {
		r, err := runWorkload(ctx, w, seed, opts)
		if err != nil {
			return nil, err
		}
		fmt.Printf("# %s seed %d: %d ops attempted, %d failed\n", w.name, seed, r.Attempted, r.Failed)
		printMetrics(w.name, endToEnd, r.EndToEnd)
		printRaw(r)
		if r.PerLayer != nil {
			printMetrics(w.name, perLayer, r.PerLayer)
		}
		printProblems(r)
		rs = append(rs, r)
	}
	for _, r := range rs {
		if !r.Correct {
			return rs, fmt.Errorf("%s: %s", r.Workload, strings.Join(r.Problems, "; "))
		}
	}
	return rs, nil
}

// writeResults records the suite's numbers. BENCHMARK.json holds only the
// benchmark's definition, so measured values live under -out.
func writeResults(path string, rs []*result, comparable bool) error {
	doc := struct {
		Comparable bool      `json:"comparable"` // false for -smoke runs
		Results    []*result `json:"results"`
	}{comparable, rs}
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("results: %w", err)
	}
	if err := os.WriteFile(path, append(enc, '\n'), 0o644); err != nil {
		return fmt.Errorf("results: %w", err)
	}
	fmt.Println("# results written to", path)
	return nil
}

// worsening is how much worse b reads than a, as a share of a, for a
// metric whose better direction is given; negative when b is better.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// selfCheck runs the suite twice back to back on the same seed. The two
// runs are the same code on the same inputs, so any end-to-end metric that
// moves by more than its bound in either direction means the bound cannot
// tell a regression from noise, and any exact count that moves at all means
// the count is not exact.
func selfCheck(ctx context.Context, ws []workload, seed int64, opts runOpts) error {
	opts.traced = true
	first, err := suite(ctx, ws, seed, opts)
	if err != nil {
		return err
	}
	second, err := suite(ctx, ws, seed, opts)
	if err != nil {
		return err
	}
	var bad []string
	for i, a := range first {
		b := second[i]
		for _, d := range endToEnd {
			x, y := a.EndToEnd[d.name], b.EndToEnd[d.name]
			diff := math.Abs(worsening(x, y, d.better))
			verdict := "ok"
			if diff > d.bound {
				verdict = "EXCEEDS BOUND"
				bad = append(bad, fmt.Sprintf("%s %s: %g vs %g", a.Workload, d.name, x, y))
			}
			fmt.Printf("selfcheck %-14s %-26s %12.6g %12.6g  diff %.3f  bound %.2f  %s\n", a.Workload, d.name, x, y, diff, d.bound, verdict)
		}
		for _, name := range exactCounts {
			x, y := a.PerLayer[name], b.PerLayer[name]
			verdict := "ok"
			if x != y {
				verdict = "DIFFERS"
				bad = append(bad, fmt.Sprintf("%s %s: %g vs %g", a.Workload, name, x, y))
			}
			fmt.Printf("selfcheck %-14s %-26s %12.10g %12.10g  exact  %s\n", a.Workload, name, x, y, verdict)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("selfcheck: two runs of the same code disagree: %s", strings.Join(bad, "; "))
	}
	return nil
}

// spreadRuns is the calibration the bounds rest on: n untraced runs of each
// workload on consecutive seeds, and for each end-to-end metric the
// distance between the first and third quartile as a share of the median —
// the number the benchmark driver computes before it accepts the bounds.
func spreadRuns(ctx context.Context, ws []workload, seed int64, n int, opts runOpts) error {
	for _, w := range ws {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			r, err := runWorkload(ctx, w, seed+int64(i), opts)
			if err != nil {
				return err
			}
			printProblems(r)
			fmt.Printf("run    %-14s seed %-4d", w.name, r.Seed)
			for _, d := range endToEnd {
				values[d.name] = append(values[d.name], r.EndToEnd[d.name])
				fmt.Printf(" %s=%.5g", d.name, r.EndToEnd[d.name])
			}
			fmt.Printf(" raw.p50_ms=%.5g host.ref_ms=%.4g\n", r.Raw["p50_ms"], r.Raw["host.ref_ms"])
		}
		for _, d := range endToEnd {
			sp := quartileSpread(values[d.name])
			verdict := "ok"
			switch {
			case d.name == "setup_s":
				verdict = "(set-up: spread not gated)"
			case sp > d.bound:
				verdict = "EXCEEDS BOUND"
			case sp > d.bound/3:
				verdict = "above a third of the bound"
			}
			fmt.Printf("spread %-14s %-26s median %12.6g %-5s spread %.4f  bound %.2f  %s\n",
				w.name, d.name, median(values[d.name]), d.unit, sp, d.bound, verdict)
		}
	}
	return nil
}
