// PageRank over a synthetic road network using the auto-tuned SpMV as the
// inner kernel — the kind of graph workload (europe_osm, roadNet-CA) that
// motivates the paper's short-row kernels.
//
// The power iteration computes r' = d*T*r + (1-d)/n, where T is the
// column-stochastic transition matrix of the graph. Every T*r product runs
// through the framework's auto-tuned CPU backend, and the final ranks are
// checked against a plain sequential power iteration.
//
//	go run ./examples/pagerank [-nodes 50000] [-iters 30]
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"sort"

	"spmvtune"
)

func main() {
	nodes := flag.Int("nodes", 50000, "graph size")
	iters := flag.Int("iters", 30, "power iterations")
	corpus := flag.Int("corpus", 30, "training corpus size")
	flag.Parse()
	log.SetFlags(0)

	// Adjacency of a road-like graph: row i holds the out-links of node i.
	adj := spmvtune.GenRoadNetwork(*nodes, 7)

	// Build the column-stochastic transition matrix T = D^-1 A transposed:
	// T[i][j] = 1/outdeg(j) if j links to i. Assemble via COO.
	coo := &spmvtune.COO{Rows: *nodes, Cols: *nodes}
	for j := 0; j < adj.Rows; j++ {
		cols, _ := adj.Row(j)
		if len(cols) == 0 {
			continue
		}
		w := 1.0 / float64(len(cols))
		for _, i := range cols {
			coo.Add(int(i), j, w)
		}
	}
	t, err := coo.ToCSR()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("transition matrix: %s\n", spmvtune.Extract(t))

	// Train a small model and decide the strategy once; the same binning
	// and kernels are reused across all iterations (the matrix does not
	// change, which is exactly the amortization the paper relies on).
	cfg := spmvtune.DefaultConfig()
	opts := spmvtune.DefaultTrainOptions()
	opts.CorpusSize = *corpus
	opts.MinRows, opts.MaxRows = 256, 2048
	model, _, err := spmvtune.TrainPipeline(cfg, opts)
	if err != nil {
		log.Fatal(err)
	}
	fw := spmvtune.NewFramework(cfg, model)

	const damping = 0.85
	n := float64(*nodes)
	rank := make([]float64, *nodes)
	next := make([]float64, *nodes)
	for i := range rank {
		rank[i] = 1 / n
	}
	decision, mul := spmvtune.PrepareCPU(fw, t, 0) // decide once, reuse every iteration
	for it := 0; it < *iters; it++ {
		mul(rank, next) // next = T * rank, auto-tuned
		for i := range next {
			next[i] = damping*next[i] + (1-damping)/n
		}
		rank, next = next, rank
	}
	fmt.Printf("auto-tuned decision: %v\n", decision)

	// Verify against a plain sequential power iteration.
	ref := make([]float64, *nodes)
	tmp := make([]float64, *nodes)
	for i := range ref {
		ref[i] = 1 / n
	}
	for it := 0; it < *iters; it++ {
		spmvtune.Reference(t, ref, tmp)
		for i := range tmp {
			tmp[i] = damping*tmp[i] + (1-damping)/n
		}
		ref, tmp = tmp, ref
	}
	maxDiff := 0.0
	for i := range rank {
		if d := math.Abs(rank[i] - ref[i]); d > maxDiff {
			maxDiff = d
		}
	}
	fmt.Printf("max |auto - reference| = %.3g\n", maxDiff)
	if maxDiff > 1e-12*n {
		log.Fatal("verification FAILED")
	}

	// Show the top-ranked nodes.
	type nr struct {
		node int
		r    float64
	}
	top := make([]nr, *nodes)
	for i, r := range rank {
		top[i] = nr{i, r}
	}
	sort.Slice(top, func(a, b int) bool { return top[a].r > top[b].r })
	fmt.Println("top 5 nodes by PageRank:")
	for _, x := range top[:5] {
		fmt.Printf("  node %-8d rank %.6g\n", x.node, x.r)
	}
}
