// Package matgen generates synthetic sparse matrices that stand in for the
// SuiteSparse/UF collection used by the paper: seeded, reproducible
// generators spanning the same row-length-distribution space (banded FEM
// stencils, power-law graphs, road networks, bipartite combinatorial
// matrices, block-structured problems with very long rows, and mixtures).
//
// The auto-tuner only ever observes (feature vector, kernel timings), so
// matching the distributional shape of the real collection is what matters
// for reproducing the paper's results.
package matgen

import (
	"math"
	"math/rand"
	"slices"

	"spmvtune/internal/sparse"
)

// rowGen describes a matrix row by row: row must append the column indices
// of row i to dst and return it, drawing any randomness from rng.
type rowGen struct {
	rows, cols int
	seed       int64
	row        func(i int, rng *rand.Rand, dst []int32) []int32
}

// build assembles the CSR matrix g describes: each row's duplicates are
// removed and its columns sorted here, then one N(0,1) value per entry is
// drawn from the row's rng. The values are stored only when vals is set;
// they are drawn either way, so the rng reaches the next row in the same
// state and ColIdx does not depend on vals. Without vals Val is nil: a
// value-free matrix for the readers that need structure only.
func (g rowGen) build(vals bool) *sparse.CSR {
	rng := rand.New(rand.NewSource(g.seed))
	a := &sparse.CSR{Rows: g.rows, Cols: g.cols, RowPtr: make([]int64, g.rows+1)}
	var scratch []int32
	for i := 0; i < g.rows; i++ {
		scratch = g.row(i, rng, scratch[:0])
		slices.Sort(scratch)
		// Dedup in place.
		w := 0
		for k, c := range scratch {
			if k > 0 && c == scratch[w-1] {
				continue
			}
			scratch[w] = c
			w++
		}
		for _, c := range scratch[:w] {
			a.ColIdx = append(a.ColIdx, c)
			if v := rng.NormFloat64(); vals {
				a.Val = append(a.Val, v)
			}
		}
		a.RowPtr[i+1] = int64(len(a.ColIdx))
	}
	return a
}

func clampCol(c, cols int) int32 {
	if c < 0 {
		c = 0
	}
	if c >= cols {
		c = cols - 1
	}
	return int32(c)
}

// Banded generates a square banded matrix: each row has up to `band`
// entries centered on the diagonal (a 1-D FEM/stencil pattern, as in
// apache1 or cryg10000). Row lengths are nearly uniform.
func Banded(rows, band int, seed int64) *sparse.CSR {
	return banded(rows, band, seed).build(true)
}

// banded is Banded's row generator.
func banded(rows, band int, seed int64) rowGen {
	if band < 1 {
		band = 1
	}
	half := band / 2
	return rowGen{rows, rows, seed, func(i int, _ *rand.Rand, dst []int32) []int32 {
		for d := -half; d <= band-half-1; d++ {
			dst = append(dst, clampCol(i+d, rows))
		}
		return dst
	}}
}

// Diagonal generates the identity pattern with random values.
func Diagonal(rows int, seed int64) *sparse.CSR {
	return rowGen{rows, rows, seed, func(i int, _ *rand.Rand, dst []int32) []int32 {
		return append(dst, int32(i))
	}}.build(true)
}

// Poisson2D generates the 5-point Laplacian on an n×n grid: 4 on the
// diagonal, −1 to each grid neighbour. Unlike the other generators its
// values are fixed, and it is SPD — the system iterative solvers expect.
func Poisson2D(n int) *sparse.CSR {
	a := &sparse.CSR{Rows: n * n, Cols: n * n, RowPtr: make([]int64, n*n+1)}
	add := func(c int, v float64) {
		a.ColIdx = append(a.ColIdx, int32(c))
		a.Val = append(a.Val, v)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			r := i*n + j
			if i > 0 {
				add(r-n, -1)
			}
			if j > 0 {
				add(r-1, -1)
			}
			add(r, 4)
			if j < n-1 {
				add(r+1, -1)
			}
			if i < n-1 {
				add(r+n, -1)
			}
			a.RowPtr[r+1] = int64(len(a.ColIdx))
		}
	}
	return a
}

// RandomUniform generates rows whose length is uniform in
// [minLen, maxLen] with uniformly random column positions.
func RandomUniform(rows, cols, minLen, maxLen int, seed int64) *sparse.CSR {
	return randomUniform(rows, cols, minLen, maxLen, seed).build(true)
}

// randomUniform is RandomUniform's row generator.
func randomUniform(rows, cols, minLen, maxLen int, seed int64) rowGen {
	if minLen < 0 {
		minLen = 0
	}
	if maxLen < minLen {
		maxLen = minLen
	}
	return rowGen{rows, cols, seed, func(_ int, rng *rand.Rand, dst []int32) []int32 {
		l := minLen + rng.Intn(maxLen-minLen+1)
		if l > cols {
			l = cols
		}
		for k := 0; k < l; k++ {
			dst = append(dst, int32(rng.Intn(cols)))
		}
		return dst
	}}
}

// PowerLaw generates a scale-free-like square matrix: row lengths follow a
// discrete power law with exponent alpha, truncated to [1, maxLen]. A small
// alpha (~1.8) yields a heavy tail of very long rows among a mass of short
// ones — the shape of web/social graphs such as dictionary28.
func PowerLaw(rows, avgTarget int, alpha float64, maxLen int, seed int64) *sparse.CSR {
	return powerLaw(rows, avgTarget, alpha, maxLen, seed).build(true)
}

// powerLaw is PowerLaw's row generator.
func powerLaw(rows, avgTarget int, alpha float64, maxLen int, seed int64) rowGen {
	if maxLen < 1 {
		maxLen = 1
	}
	if maxLen > rows {
		maxLen = rows
	}
	// Inverse-CDF sampling of P(l) ∝ l^-alpha on [1, maxLen].
	sample := func(rng *rand.Rand) int {
		u := rng.Float64()
		oneMinus := 1 - alpha
		lmax := math.Pow(float64(maxLen), oneMinus)
		l := math.Pow(u*(lmax-1)+1, 1/oneMinus)
		n := int(l)
		if n < 1 {
			n = 1
		}
		if n > maxLen {
			n = maxLen
		}
		return n
	}
	// Scale so the expected length lands near avgTarget: estimate the raw
	// mean from a pilot sample, then multiply.
	pilot := rand.New(rand.NewSource(seed ^ 0x9e3779b9))
	sum := 0
	const pilots = 2048
	for k := 0; k < pilots; k++ {
		sum += sample(pilot)
	}
	scale := 1.0
	if sum > 0 && avgTarget > 0 {
		scale = float64(avgTarget) * pilots / float64(sum)
	}
	return rowGen{rows, rows, seed, func(_ int, rng *rand.Rand, dst []int32) []int32 {
		l := int(float64(sample(rng)) * scale)
		if l < 1 {
			l = 1
		}
		if l > rows {
			l = rows
		}
		for k := 0; k < l; k++ {
			dst = append(dst, int32(rng.Intn(rows)))
		}
		return dst
	}}
}

// RoadNetwork generates a square matrix shaped like a planar road graph
// (europe_osm, roadNet-CA): degree mostly 1–4, neighbors close to the
// diagonal (strong locality after the natural node ordering).
func RoadNetwork(rows int, seed int64) *sparse.CSR {
	return roadNetwork(rows, seed).build(true)
}

// roadNetwork is RoadNetwork's row generator.
func roadNetwork(rows int, seed int64) rowGen {
	return rowGen{rows, rows, seed, func(i int, rng *rand.Rand, dst []int32) []int32 {
		deg := 1 + rng.Intn(4) // 1..4
		for k := 0; k < deg; k++ {
			// Mostly local links, occasional longer hop.
			span := 8
			if rng.Intn(16) == 0 {
				span = rows / 64
				if span < 8 {
					span = 8
				}
			}
			off := rng.Intn(2*span+1) - span
			if off == 0 {
				off = 1
			}
			dst = append(dst, clampCol(i+off, rows))
		}
		return dst
	}}
}

// Bipartite generates a rectangular combinatorial matrix (ch7-9-b3,
// shar_te2-b2, D6-6): every row has exactly rowLen uniformly random columns
// out of cols. Row lengths are constant and short.
func Bipartite(rows, cols, rowLen int, seed int64) *sparse.CSR {
	return bipartite(rows, cols, rowLen, seed).build(true)
}

// bipartite is Bipartite's row generator.
func bipartite(rows, cols, rowLen int, seed int64) rowGen {
	if rowLen > cols {
		rowLen = cols
	}
	return rowGen{rows, cols, seed, func(_ int, rng *rand.Rand, dst []int32) []int32 {
		for len(dst) < rowLen {
			c := int32(rng.Intn(cols))
			dup := false
			for _, e := range dst {
				if e == c {
					dup = true
					break
				}
			}
			if !dup {
				dst = append(dst, c)
			}
		}
		return dst
	}}
}

// BlockFEM generates a square matrix of overlapping dense diagonal blocks:
// each row sees every column of its block neighborhood, producing long rows
// of width ≈ blockWidth (crankseg_2, pkustk14, pcrystk02, Ga3As3H12).
// jitter adds ±jitter random variation to the per-row width.
func BlockFEM(rows, blockWidth, jitter int, seed int64) *sparse.CSR {
	return blockFEM(rows, blockWidth, jitter, seed).build(true)
}

// blockFEM is BlockFEM's row generator.
func blockFEM(rows, blockWidth, jitter int, seed int64) rowGen {
	if blockWidth < 1 {
		blockWidth = 1
	}
	return rowGen{rows, rows, seed, func(i int, rng *rand.Rand, dst []int32) []int32 {
		w := blockWidth
		if jitter > 0 {
			w += rng.Intn(2*jitter+1) - jitter
		}
		if w < 1 {
			w = 1
		}
		start := i - w/2
		for d := 0; d < w; d++ {
			dst = append(dst, clampCol(start+d, rows))
		}
		return dst
	}}
}

// Mixed concatenates regions with different per-row lengths: lens[r] gives
// the row length used for the r-th region of regionRows rows, cycling until
// rows are exhausted. This produces exactly the "short rows followed by
// medium rows" scenarios of Section III-B.
func Mixed(rows, cols, regionRows int, lens []int, seed int64) *sparse.CSR {
	return mixed(rows, cols, regionRows, lens, seed).build(true)
}

// mixed is Mixed's row generator.
func mixed(rows, cols, regionRows int, lens []int, seed int64) rowGen {
	if regionRows < 1 {
		regionRows = 1
	}
	if len(lens) == 0 {
		lens = []int{1}
	}
	return rowGen{rows, cols, seed, func(i int, rng *rand.Rand, dst []int32) []int32 {
		l := lens[(i/regionRows)%len(lens)]
		if l > cols {
			l = cols
		}
		for k := 0; k < l; k++ {
			dst = append(dst, int32(rng.Intn(cols)))
		}
		return dst
	}}
}

// SingleNNZRows generates the Figure 8 overhead workload: rows rows, each
// with exactly one non-zero (on the diagonal position modulo cols).
func SingleNNZRows(rows, cols int, seed int64) *sparse.CSR {
	return rowGen{rows, cols, seed, func(i int, _ *rand.Rand, dst []int32) []int32 {
		return append(dst, int32(i%cols))
	}}.build(true)
}

// QuasiDense generates rows of length near cols*density with uniform
// positions — the "denormal"-style counter-example matrices.
func QuasiDense(rows, cols int, density float64, seed int64) *sparse.CSR {
	l := int(float64(cols) * density)
	if l < 1 {
		l = 1
	}
	return RandomUniform(rows, cols, l-l/8, l+l/8, seed)
}

// RMAT generates a recursive-matrix (R-MAT/Kronecker) graph of 2^scale
// vertices and avgDeg*2^scale edges with partition probabilities
// (a, b, c, 1-a-b-c). R-MAT produces the skewed, community-structured
// degree distributions of real web/social graphs — a harder case than
// PowerLaw because hub rows cluster, stressing both binning and the
// kernels' divergence handling.
func RMAT(scale, avgDeg int, a, b, c float64, seed int64) *sparse.CSR {
	n := 1 << scale
	edges := n * avgDeg
	rng := rand.New(rand.NewSource(seed))
	coo := &sparse.COO{Rows: n, Cols: n}
	for e := 0; e < edges; e++ {
		row, col := 0, 0
		for bit := scale - 1; bit >= 0; bit-- {
			r := rng.Float64()
			switch {
			case r < a:
				// top-left quadrant
			case r < a+b:
				col |= 1 << bit
			case r < a+b+c:
				row |= 1 << bit
			default:
				row |= 1 << bit
				col |= 1 << bit
			}
		}
		coo.Add(row, col, rng.NormFloat64())
	}
	m, err := coo.ToCSR()
	if err != nil {
		panic(err) // indices are in range by construction
	}
	return m
}
