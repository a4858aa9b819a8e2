// Command experiments regenerates the paper's tables and figures on the
// simulated device (see DESIGN.md's per-experiment index):
//
//	experiments -exp all
//	experiments -exp fig6 -scale 32 -corpus 240
//	experiments -exp fig8 -scale 1
//	experiments -exp census -scale 16
//
// Absolute times come from the device model, so shapes (who wins, by what
// factor, where crossovers fall) are the meaningful output; EXPERIMENTS.md
// records them against the paper's numbers.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"spmvtune/internal/core"
	"spmvtune/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all|fig2a|fig2b|fig5|fig6|fig7|fig8|fig9|table2|mlerr|queued|features|reorder|census (all omits census)")
	scale := flag.Int("scale", 64, "representative-matrix scale divisor (1 = paper-size matrices)")
	corpus := flag.Int("corpus", 120, "training corpus size")
	minRows := flag.Int("minrows", 512, "smallest training-corpus matrix")
	maxRows := flag.Int("maxrows", 4096, "largest training-corpus matrix")
	seed := flag.Int64("seed", 42, "corpus and probe-vector seed")
	modelPath := flag.String("model", "", "load the trained model from this file (skips training)")
	saveModel := flag.String("save-model", "", "after training, save the model to this file")
	flag.Parse()

	o := &experiments.Options{Out: os.Stdout, Scale: *scale, CorpusN: *corpus,
		MinRows: *minRows, MaxRows: *maxRows, Seed: *seed}
	o.Defaults()
	if *modelPath != "" {
		m, err := core.LoadModel(*modelPath)
		if err != nil {
			fatal(err)
		}
		o.Model = m
		fmt.Printf("# loaded model from %s\n", *modelPath)
	}

	run := func(name string, fn func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		if err := fn(); err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		fmt.Println()
	}

	run("table2", func() error { experiments.Table2(o); return nil })
	run("fig2a", func() error { _, err := experiments.Fig2a(o); return err })
	run("fig2b", func() error { _, err := experiments.Fig2b(o); return err })
	run("fig5", func() error { _, err := experiments.Fig5(o); return err })
	run("mlerr", func() error { _, err := experiments.MLErr(o); return err })
	run("fig6", func() error { _, _, err := experiments.Fig6(o); return err })
	run("fig7", func() error { _, _, err := experiments.Fig7(o); return err })
	run("fig8", func() error { _, err := experiments.Fig8(o); return err })
	run("fig9", func() error { _, err := experiments.Fig9(o); return err })
	run("queued", func() error { _, err := experiments.Queued(o); return err })
	run("features", func() error { _, err := experiments.FeatureCmp(o); return err })
	run("reorder", func() error { _, err := experiments.Reorder(o); return err })
	// The census decides what the kernel space keeps; it is no paper
	// figure, so "all" leaves it out.
	if *exp == "census" {
		run("census", func() error { _, err := experiments.Census(o); return err })
	}

	known := "all|fig2a|fig2b|fig5|fig6|fig7|fig8|fig9|table2|mlerr|queued|features|reorder|census"
	if *exp != "all" && !strings.Contains(known, *exp) {
		fatal(fmt.Errorf("unknown experiment %q (want %s)", *exp, known))
	}
	if *saveModel != "" && o.Model != nil {
		if err := core.SaveModel(*saveModel, o.Model); err != nil {
			fatal(err)
		}
		fmt.Printf("# saved model to %s\n", *saveModel)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
