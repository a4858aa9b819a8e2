package experiments

import (
	"fmt"

	"spmvtune/internal/c50"
	"spmvtune/internal/core"
	"spmvtune/internal/matgen"
)

// FeatureCmpResult compares the Table I attribute set with the paper's
// proposed extension (row-length histogram features).
type FeatureCmpResult struct {
	BasicStage1, BasicStage2       float64
	ExtendedStage1, ExtendedStage2 float64
	BasicRegret, ExtendedRegret    core.Regret
}

// FeatureCmp is the Section IV-C future-work experiment: "we plan to ...
// improve accuracy of prediction by using the parameters, such as the
// histogram of rows of non-zeros". It trains two models on identical
// corpus labels — one on the Table I vector, one extended with the
// histogram — and compares held-out error and oracle regret.
func FeatureCmp(o *Options) (FeatureCmpResult, error) {
	o.Defaults()
	var res FeatureCmpResult

	corpus := matgen.Matrices(matgen.ValueFreeCorpus(matgen.CorpusOptions{N: o.CorpusN, MinRows: o.MinRows, MaxRows: o.MaxRows, Seed: o.Seed}))
	fresh := matgen.Matrices(matgen.ValueFreeCorpus(matgen.CorpusOptions{N: 16, MinRows: o.MinRows, MaxRows: o.MaxRows, Seed: o.Seed + 1}))

	train := func(cfg core.Config) (float64, float64, core.Regret) {
		td := core.NewTrainingData(cfg)
		td.AddMatrices(cfg, corpus)
		td.Finalize()
		tr1, te1 := td.Stage1.Split(0.75, o.Seed)
		tr2, te2 := td.Stage2.Split(0.75, o.Seed)
		m := core.TrainModel(&core.TrainingData{Stage1: tr1, Stage2: tr2, Us: cfg.Us}, cfg, c50.DefaultOptions())
		e1, _ := c50.Evaluate(m.Stage1, te1)
		e2, _ := c50.Evaluate(m.Stage2, te2)
		return e1, e2, core.EvaluateRegret(cfg, m, fresh)
	}

	basicCfg := o.config()
	res.BasicStage1, res.BasicStage2, res.BasicRegret = train(basicCfg)

	extCfg := o.config()
	extCfg.ExtendedFeatures = true
	res.ExtendedStage1, res.ExtendedStage2, res.ExtendedRegret = train(extCfg)

	fmt.Fprintf(o.Out, "== Feature-set comparison (Section IV-C future work) ==\n")
	fmt.Fprintf(o.Out, "Table I features:   stage1 %.1f%%, stage2 %.1f%%, regret geo-mean %.3fx (worst %.2fx)\n",
		100*res.BasicStage1, 100*res.BasicStage2, res.BasicRegret.GeoMean, res.BasicRegret.Worst)
	fmt.Fprintf(o.Out, "+ histogram:        stage1 %.1f%%, stage2 %.1f%%, regret geo-mean %.3fx (worst %.2fx)\n",
		100*res.ExtendedStage1, 100*res.ExtendedStage2, res.ExtendedRegret.GeoMean, res.ExtendedRegret.Worst)
	return res, nil
}
