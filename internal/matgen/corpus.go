package matgen

import (
	"cmp"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"spmvtune/internal/sparse"
)

// CorpusOptions controls synthetic training-corpus generation. The corpus
// plays the role of the paper's ~2000 UF-collection matrices: a seeded
// population spanning the feature space the two-stage model trains on.
type CorpusOptions struct {
	N       int   // number of matrices
	MinRows int   // smallest matrix height
	MaxRows int   // largest matrix height
	Seed    int64 // master seed
}

// DefaultCorpusOptions returns a corpus sized for offline training on one
// machine: feature-space coverage matters more than raw count, so the
// default is smaller than the paper's 2000 but spans the same families.
func DefaultCorpusOptions() CorpusOptions {
	return CorpusOptions{N: 240, MinRows: 512, MaxRows: 8192, Seed: 42}
}

// CorpusMatrix is one member of the synthetic training corpus.
type CorpusMatrix struct {
	Name   string
	Family string
	A      *sparse.CSR
}

// WithDefaultBounds returns o with a zero MinRows or MaxRows taken from
// DefaultCorpusOptions. Negative or inverted bounds, from which Corpus
// would build empty matrices or panic, are an error.
func (o CorpusOptions) WithDefaultBounds() (CorpusOptions, error) {
	d := DefaultCorpusOptions()
	o.MinRows, o.MaxRows = cmp.Or(o.MinRows, d.MinRows), cmp.Or(o.MaxRows, d.MaxRows)
	if o.MinRows < 0 || o.MaxRows < o.MinRows {
		return o, fmt.Errorf("matgen: corpus rows [%d, %d] invalid: need 0 <= min <= max", o.MinRows, o.MaxRows)
	}
	return o, nil
}

// Matrices returns the corpus members' matrices in corpus order.
func Matrices(c []CorpusMatrix) []*sparse.CSR {
	out := make([]*sparse.CSR, len(c))
	for i, cm := range c {
		out[i] = cm.A
	}
	return out
}

// Corpus generates opts.N matrices cycling through the generator families
// with randomized parameters. The mix is weighted toward short-row matrices
// to match the UF-collection histogram (Figure 5: ~98.7% of rows have ≤100
// non-zeros), while still covering medium and long-row regimes so that
// every kernel in the pool is optimal somewhere. Every parameter is drawn
// from the master seed in corpus order first; the matrices are then built
// on a GOMAXPROCS pool, so the output does not depend on the pool.
func Corpus(opts CorpusOptions) []CorpusMatrix { return corpus(opts, true) }

// ValueFreeCorpus is Corpus without the values: the same members with the
// same Name, Family, RowPtr and ColIdx, each with Val nil. The tuning
// search, features, plan fingerprints and regret evaluation read structure
// only, so a corpus that is only labelled or scored needs nothing more, and
// never holding the values keeps their memory out of the peak.
func ValueFreeCorpus(opts CorpusOptions) []CorpusMatrix { return corpus(opts, false) }

// corpus builds Corpus's members, storing values only when vals is set.
func corpus(opts CorpusOptions, vals bool) []CorpusMatrix {
	if opts.N <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	rows := func() int {
		if opts.MaxRows <= opts.MinRows {
			return opts.MinRows
		}
		return opts.MinRows + rng.Intn(opts.MaxRows-opts.MinRows)
	}
	out := make([]CorpusMatrix, 0, opts.N)
	var builds []func() rowGen
	var nnz []int // estimated, to order the builds
	add := func(family string, estNNZ int, build func() rowGen) {
		out = append(out, CorpusMatrix{Name: fmt.Sprintf("%s-%04d", family, len(out)), Family: family})
		builds, nnz = append(builds, build), append(nnz, estNNZ)
	}
	// Family weights: index into this slice selects the family; short-row
	// families dominate, matching Figure 5. Each case draws its parameters
	// in the order the generator call lists them.
	for len(out) < opts.N {
		seed := rng.Int63()
		switch rng.Intn(10) {
		case 0, 1:
			m, band := rows(), 3+rng.Intn(12)
			add("banded", m*band, func() rowGen { return banded(m, band, seed) })
		case 2:
			m := rows()
			add("road", m*3, func() rowGen { return roadNetwork(m, seed) })
		case 3, 4:
			m := rows()
			n := m / (1 + rng.Intn(4))
			if n < 32 {
				n = 32
			}
			rowLen := 1 + rng.Intn(6)
			add("bipartite", m*rowLen, func() rowGen { return bipartite(m, n, rowLen, seed) })
		case 5:
			m, avg, alpha := rows(), 2+rng.Intn(8), 1.6+rng.Float64()
			add("powerlaw", m*avg, func() rowGen { return powerLaw(m, avg, alpha, 512, seed) })
		case 6:
			m := rows()
			lo, hi := 1+rng.Intn(8), 8+rng.Intn(40)
			add("uniform", m*(lo+hi)/2, func() rowGen { return randomUniform(m, m, lo, hi, seed) })
		case 7:
			// Medium rows: 20-120 nnz per row.
			m := rows() / 2
			if m < 256 {
				m = 256
			}
			w := 20 + rng.Intn(100)
			add("blockfem", m*w, func() rowGen { return blockFEM(m, w, w/4, seed) })
		case 8:
			// Long rows: 150-600 nnz per row. Half the samples keep the
			// full row count so the model sees long-row bins that are also
			// large (the regime of crankseg_2/HV15R-class matrices).
			m := rows() / 8
			if rng.Intn(2) == 0 {
				m = rows()
			}
			if m < 128 {
				m = 128
			}
			w := 150 + rng.Intn(450)
			add("blockfem-long", m*w, func() rowGen { return blockFEM(m, w, w/5, seed) })
		case 9:
			// Mixed regions. Half mild (short + medium rows), half extreme
			// (short + very long rows) — the latter are the inputs where
			// per-bin kernel selection pays off most, so they anchor the
			// stage-1 labels at small granularities.
			m := rows()
			region := 16 << rng.Intn(5)
			lens := []int{1 + rng.Intn(4), 10 + rng.Intn(40), 2 + rng.Intn(6)}
			if rng.Intn(2) == 0 {
				lens = []int{1 + rng.Intn(4), 150 + rng.Intn(500)}
			}
			add("mixed", m*slices.Max(lens)/len(lens), func() rowGen { return mixed(m, m, region, lens, seed) })
		}
	}
	// Build largest estimate first, so the biggest builds do not start last
	// and run alone.
	order := make([]int, len(out))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(x, y int) int { return cmp.Compare(nnz[y], nnz[x]) })
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(order)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1)) - 1; k < len(order); k = int(next.Add(1)) - 1 {
				out[order[k]].A = builds[order[k]]().build(vals)
			}
		}()
	}
	wg.Wait()
	return out
}
