// Quickstart: train a small auto-tuning model, then run an auto-tuned SpMV
// on a matrix the model has never seen and compare it against the default
// single-kernel executions.
//
//	go run ./examples/quickstart [-corpus 40] [-model path.json]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"spmvtune"
)

func main() {
	corpus := flag.Int("corpus", 40, "training corpus size (bigger = better model, slower)")
	modelPath := flag.String("model", "", "load a pre-trained model instead of training")
	flag.Parse()
	log.SetFlags(0)

	cfg := spmvtune.DefaultConfig()

	// 1. Obtain a model: load a saved one or train on a synthetic corpus.
	var model *spmvtune.Model
	if *modelPath != "" {
		m, err := spmvtune.LoadModel(*modelPath)
		if err != nil {
			log.Fatal(err)
		}
		model = m
		fmt.Printf("loaded model from %s\n", *modelPath)
	} else {
		opts := spmvtune.DefaultTrainOptions()
		opts.CorpusSize = *corpus
		opts.MinRows, opts.MaxRows = 256, 2048
		opts.Progress = func(done, total int) {
			if done%10 == 0 || done == total {
				fmt.Fprintf(os.Stderr, "\rtraining: labeled %d/%d", done, total)
			}
		}
		m, report, err := spmvtune.TrainPipeline(cfg, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintln(os.Stderr)
		model = m
		fmt.Printf("trained on %d matrices; held-out error: stage1 %.1f%%, stage2 %.1f%%\n",
			report.Corpus, 100*report.Stage1Error, 100*report.Stage2Error)
	}

	// 2. A fresh input matrix: a mixed workload with short graph-like rows
	//    and long FEM-like rows — the kind of input where one fixed kernel
	//    is a bad compromise.
	a := spmvtune.GenMixed(20000, 20000, 128, []int{2, 300, 4}, 12345)
	f := spmvtune.Extract(a)
	fmt.Printf("\ninput matrix: %s\n", f)

	v := make([]float64, a.Cols)
	for i := range v {
		v[i] = 1.0 / float64(i+1)
	}
	u := make([]float64, a.Rows)

	// 3. Auto-tuned execution on the simulated device.
	fw := spmvtune.NewFramework(cfg, model)
	decision, auto, err := spmvtune.RunSim(fw, a, v, u)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndecision: %v\n", decision)
	fmt.Printf("kernel-auto:   %9.3f ms\n", auto.Seconds*1e3)

	// 4. Compare with the two fixed-kernel defaults of the paper's Figure 6.
	for _, k := range []string{"serial", "vector"} {
		st, err := spmvtune.RunSingleKernelSim(cfg.Device, a, v, u, k)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("kernel-%-7s %9.3f ms (%.2fx slower than auto)\n", k+":", st.Seconds*1e3, st.Seconds/auto.Seconds)
	}

	// 5. Verify against the sequential reference (Algorithm 1).
	want := make([]float64, a.Rows)
	spmvtune.Reference(a, v, want)
	if _, _, err := spmvtune.RunSim(fw, a, v, u); err != nil {
		log.Fatal(err)
	}
	if !spmvtune.VecApproxEqual(want, u, 1e-9) {
		log.Fatal("verification FAILED")
	}
	fmt.Println("\nresult verified against the sequential reference ✓")
}
