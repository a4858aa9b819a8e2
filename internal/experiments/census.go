package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"spmvtune/internal/core"
	"spmvtune/internal/kernels"
	"spmvtune/internal/matgen"
	"spmvtune/internal/sparse"
)

// CensusRun is the census of one matrix set. For each point of the
// synthesized space, in space order, Argmin counts the (matrix, U, bin)
// cells whose fastest kernel is the point (the lowest ID on exact ties),
// and Wins the argmin cells where the pool-only search's fastest kernel is
// at least 1 % slower. GeoRatio and WorstRatio are the geo-mean and
// maximum over matrices of pool ÷ space argminSeconds; the two Seconds
// fields time the searches.
type CensusRun struct {
	Name                      string
	Cells                     int
	Argmin, Wins              []int
	GeoRatio, WorstRatio      float64
	SpaceSeconds, PoolSeconds float64
}

// Census decides which points of the synthesized space earn their search
// time: the machinery that chooses an optimisation must cost less than the
// optimisation wins (Elafrou et al.). It searches the training corpus and
// the representative matrices at the configured scale over the space and
// over the pool alone, and compares the searches cell by cell. A point
// that wins no cell in any run buys nothing the paper's pool does not.
func Census(o *Options) ([]CensusRun, error) {
	o.Defaults()
	corpus := matgen.ValueFreeCorpus(matgen.CorpusOptions{
		N: o.CorpusN, MinRows: o.MinRows, MaxRows: o.MaxRows, Seed: o.Seed,
	})
	var reps []*sparse.CSR
	for _, r := range o.representative() {
		reps = append(reps, r.A)
	}
	runs := []CensusRun{
		{Name: fmt.Sprintf("corpus (%d matrices, seed %d)", len(corpus), o.Seed)},
		{Name: fmt.Sprintf("representatives at 1/%d", o.Scale)},
	}
	fmt.Fprintf(o.Out, "== Census: synthesized points against a pool-only search ==\n")
	for i, mats := range [][]*sparse.CSR{matgen.Matrices(corpus), reps} {
		run := &runs[i]
		if err := o.census(run, mats); err != nil {
			return nil, err
		}
		fmt.Fprintf(o.Out, "# %s: %d cells, search %.1fs (synth) / %.1fs (pool)\n",
			run.Name, run.Cells, run.SpaceSeconds, run.PoolSeconds)
		fmt.Fprintf(o.Out, "%-24s %7s %9s\n", "point", "argmin", "wins>=1%")
		for id, info := range kernels.SynthSpace().Infos {
			fmt.Fprintf(o.Out, "%-24s %7d %9d\n", info.Name, run.Argmin[id], run.Wins[id])
		}
		fmt.Fprintf(o.Out, "pool / space argmin seconds: geo-mean %.4f, worst %.4f\n", run.GeoRatio, run.WorstRatio)
	}
	return runs, nil
}

// census fills run from a search of mats over the space and one over the
// pool.
func (o *Options) census(run *CensusRun, mats []*sparse.CSR) error {
	search := func(space string) ([]core.SearchResult, float64, error) {
		cfg := o.config()
		cfg.KernelSpace = space
		start := time.Now()
		res, err := core.SearchAll(context.Background(), cfg, mats)
		return res, time.Since(start).Seconds(), err
	}
	spaceRes, spaceSecs, err := search("synth")
	if err != nil {
		return err
	}
	poolRes, poolSecs, err := search("pool")
	if err != nil {
		return err
	}
	run.SpaceSeconds, run.PoolSeconds = spaceSecs, poolSecs
	n := kernels.SynthSpace().Size()
	run.Argmin, run.Wins = make([]int, n), make([]int, n)
	logSum := 0.0
	for mi := range mats {
		for ui, ul := range spaceRes[mi].PerU {
			for bi, bl := range ul.Bins {
				spaceMin, argmin := minTime(bl.KernelTimes)
				poolMin, _ := minTime(poolRes[mi].PerU[ui].Bins[bi].KernelTimes)
				run.Argmin[argmin]++
				if poolMin >= spaceMin*1.01 {
					run.Wins[argmin]++
				}
				run.Cells++
			}
		}
		ratio := argminSeconds(poolRes[mi]) / argminSeconds(spaceRes[mi])
		logSum += math.Log(ratio)
		run.WorstRatio = max(run.WorstRatio, ratio)
	}
	if len(mats) > 0 {
		run.GeoRatio = math.Exp(logSum / float64(len(mats)))
	}
	return nil
}

// argminSeconds is the best time a search found for its matrix: the least,
// over granularities, of the sum of each bin's fastest kernel (the label
// adds a tie-break on top, which the census does not compare).
func argminSeconds(res core.SearchResult) float64 {
	best := math.Inf(1)
	for _, ul := range res.PerU {
		sum := 0.0
		for _, bl := range ul.Bins {
			s, _ := minTime(bl.KernelTimes)
			sum += s
		}
		best = min(best, sum)
	}
	return best
}

// minTime returns the smallest time and the lowest index holding it.
func minTime(times []float64) (float64, int) {
	best, at := math.Inf(1), 0
	for i, s := range times {
		if s < best {
			best, at = s, i
		}
	}
	return best, at
}
