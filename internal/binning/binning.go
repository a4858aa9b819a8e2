// Package binning implements the paper's grouping step (Section III-B,
// Algorithm 2): rows with similar workloads are gathered into bins so that
// each bin can later be processed by the kernel best suited to its rows.
//
// The paper's coarse-grained scheme treats every U neighboring rows as one
// "virtual" row whose workload is the total number of non-zeros of those
// rows; virtual row i lands in bin floor(workload/U), capped at the last
// bin. Only the first row index of each virtual row needs to be stored.
// The package also provides the alternative schemes discussed in the paper:
// fine-grained (per-row), hybrid, and single-bin.
package binning

import (
	"fmt"

	"spmvtune/internal/sparse"
)

// DefaultMaxBins is the paper's bin-count cap ("there are up to 100 bins").
const DefaultMaxBins = 100

// Granularities returns the paper's candidate granularity units U:
// "U is preset to be 10, 20, 50, 100, ..., 10^6" — a 1-2-5 series.
func Granularities() []int {
	return []int{10, 20, 50, 100, 200, 500, 1000, 2000, 5000,
		10000, 20000, 50000, 100000, 200000, 500000, 1000000}
}

// Group is a contiguous run of matrix rows [Start, Start+Count) assigned to
// a bin as one unit. The coarse scheme produces Count == U groups (smaller
// at the matrix tail); the fine scheme produces Count == 1 groups.
type Group struct {
	Start int32
	Count int32
}

// Binning is the result of grouping a matrix's rows into workload bins.
// Bins[b] holds the row groups of bin b; empty bins stay empty slices.
type Binning struct {
	Scheme string // "coarse", "fine", "hybrid", "single"
	U      int    // nominal granularity (coarse/hybrid); 1 for fine; 0 for single
	Bins   [][]Group
	M      int // rows of the source matrix
}

// NumRows returns the number of matrix rows assigned to bin b.
func (b *Binning) NumRows(binID int) int {
	n := 0
	for _, g := range b.Bins[binID] {
		n += int(g.Count)
	}
	return n
}

// NonEmpty returns the indices of bins that contain at least one row.
func (b *Binning) NonEmpty() []int {
	var out []int
	for i := range b.Bins {
		if len(b.Bins[i]) > 0 {
			out = append(out, i)
		}
	}
	return out
}

// TotalRows returns the number of rows across all bins; a correct binning
// covers every matrix row exactly once, so this equals M.
func (b *Binning) TotalRows() int {
	n := 0
	for i := range b.Bins {
		n += b.NumRows(i)
	}
	return n
}

// Validate checks that the binning partitions [0, M): every row appears in
// exactly one group.
func (b *Binning) Validate() error {
	seen := make([]bool, b.M)
	for binID := range b.Bins {
		for _, g := range b.Bins[binID] {
			if g.Count <= 0 {
				return fmt.Errorf("binning: empty group in bin %d", binID)
			}
			if g.Start < 0 || int(g.Start)+int(g.Count) > b.M {
				return fmt.Errorf("binning: group [%d,%d) outside [0,%d)", g.Start, int(g.Start)+int(g.Count), b.M)
			}
			for r := g.Start; r < g.Start+g.Count; r++ {
				if seen[r] {
					return fmt.Errorf("binning: row %d assigned twice", r)
				}
				seen[r] = true
			}
		}
	}
	for r, ok := range seen {
		if !ok {
			return fmt.Errorf("binning: row %d unassigned", r)
		}
	}
	return nil
}

// Workloads implements step 1 of the framework (Algorithm 2, lines 1-4):
// wl[i] is the total number of non-zeros in virtual row i, i.e. rows
// [i*U, min((i+1)*U, M)).
func Workloads(a *sparse.CSR, u int) []int64 {
	if u < 1 {
		u = 1
	}
	n := virtualRows(a.Rows, u)
	wl := make([]int64, n)
	for i := 0; i < n; i++ {
		lo := i * u
		hi := lo + u
		if hi > a.Rows {
			hi = a.Rows
		}
		wl[i] = a.RowPtr[hi] - a.RowPtr[lo]
	}
	return wl
}

// virtualRows returns ceil(rows/u), the number of virtual rows of U adjacent
// rows, without the overflow of (rows+u-1)/u for u near math.MaxInt.
func virtualRows(rows, u int) int {
	n := rows / u
	if rows%u != 0 {
		n++
	}
	return n
}

// coarseBinID returns virtual row i's bin under the coarse scheme, reading
// the workload straight off the CSR row-pointer prefix array — the wl slice
// Workloads materializes is never needed.
func coarseBinID(a *sparse.CSR, i, u, maxBins int) int {
	lo := i * u
	hi := lo + u
	if hi > a.Rows {
		hi = a.Rows
	}
	id := int((a.RowPtr[hi] - a.RowPtr[lo]) / int64(u))
	if id >= maxBins {
		id = maxBins - 1
	}
	return id
}

// Binner builds coarse binnings without allocating once warm: group counts,
// bin offsets and the group arena are reused across calls, and bin indices
// come straight from the row-pointer prefix array instead of a materialized
// Workloads slice. Hot per-request paths (plan rebinning, benchmarks) keep
// one Binner per goroutine; the returned Binning aliases the Binner's arena
// and is valid until the next Coarse call on the same Binner.
type Binner struct {
	counts []int32
	offs   []int32
	arena  []Group
	bins   [][]Group
	out    Binning
}

// Coarse is the paper's coarse-grained binning (Algorithm 2) on reused
// storage: virtual rows of U adjacent rows, bin index floor(workload/U),
// overflow into the last bin. maxBins <= 0 uses DefaultMaxBins. The result
// is structurally identical (reflect.DeepEqual) to the package-level Coarse.
func (bn *Binner) Coarse(a *sparse.CSR, u, maxBins int) *Binning {
	if u < 1 {
		u = 1
	}
	if maxBins <= 0 {
		maxBins = DefaultMaxBins
	}
	n := virtualRows(a.Rows, u)

	if cap(bn.counts) < maxBins {
		bn.counts = make([]int32, maxBins)
	}
	counts := bn.counts[:maxBins]
	clear(counts)
	for i := 0; i < n; i++ {
		counts[coarseBinID(a, i, u, maxBins)]++
	}

	if cap(bn.offs) < maxBins {
		bn.offs = make([]int32, maxBins)
	}
	offs := bn.offs[:maxBins]
	total := int32(0)
	for b := 0; b < maxBins; b++ {
		offs[b] = total
		total += counts[b]
	}

	if cap(bn.arena) < int(total) {
		bn.arena = make([]Group, total)
	}
	if cap(bn.bins) < maxBins {
		bn.bins = make([][]Group, maxBins)
	}
	bins := bn.bins[:maxBins]
	// Empty bins must be nil, matching the append-based construction.
	for b := 0; b < maxBins; b++ {
		if counts[b] == 0 {
			bins[b] = nil
			continue
		}
		off := offs[b]
		bins[b] = bn.arena[off : off : off+counts[b]]
	}
	for i := 0; i < n; i++ {
		id := coarseBinID(a, i, u, maxBins)
		start := i * u
		count := u
		if start+count > a.Rows {
			count = a.Rows - start
		}
		bins[id] = append(bins[id], Group{Start: int32(start), Count: int32(count)})
	}

	bn.out = Binning{Scheme: "coarse", U: u, Bins: bins, M: a.Rows}
	return &bn.out
}

// Coarse implements the paper's coarse-grained binning (Algorithm 2):
// virtual rows of U adjacent rows, bin index floor(workload/U), overflow
// into the last bin. maxBins <= 0 uses DefaultMaxBins.
func Coarse(a *sparse.CSR, u, maxBins int) *Binning {
	var bn Binner
	b := *bn.Coarse(a, u, maxBins)
	return &b
}

// Fine is the fine-grained alternative (Section III-B): every single row is
// stored individually, binned by its own length. It is Coarse with U=1 but
// kept as a distinct scheme for the overhead experiments (Figure 8).
func Fine(a *sparse.CSR, maxBins int) *Binning {
	b := Coarse(a, 1, maxBins)
	b.Scheme = "fine"
	return b
}

// Single places every row into one bin — the strategy the paper's Figure 9
// revisits for matrices where any binning split loses to a single
// well-chosen kernel.
func Single(a *sparse.CSR) *Binning {
	b := &Binning{Scheme: "single", U: 0, Bins: make([][]Group, 1), M: a.Rows}
	if a.Rows > 0 {
		b.Bins[0] = []Group{{Start: 0, Count: int32(a.Rows)}}
	}
	return b
}

// Hybrid uses fine-grained groups for short virtual rows and coarse groups
// for long ones (the SpGEMM-style mixed scheme the paper cites): rows whose
// individual length is below threshold are binned per U-sized virtual row,
// rows at or above threshold are binned individually so long rows never
// share a group with short ones.
func Hybrid(a *sparse.CSR, u, threshold, maxBins int) *Binning {
	if u < 1 {
		u = 1
	}
	if maxBins <= 0 {
		maxBins = DefaultMaxBins
	}
	b := &Binning{Scheme: "hybrid", U: u, Bins: make([][]Group, maxBins), M: a.Rows}
	place := func(start, count int, wl int64, unit int64) {
		binID := int(wl / unit)
		if binID >= maxBins {
			binID = maxBins - 1
		}
		b.Bins[binID] = append(b.Bins[binID], Group{Start: int32(start), Count: int32(count)})
	}
	i := 0
	for i < a.Rows {
		l := int64(a.RowPtr[i+1] - a.RowPtr[i])
		if l >= int64(threshold) {
			place(i, 1, l, int64(u))
			i++
			continue
		}
		// Accumulate up to U short rows (stopping before a long row).
		start := i
		var wl int64
		for i < a.Rows && i-start < u {
			rl := a.RowPtr[i+1] - a.RowPtr[i]
			if rl >= int64(threshold) {
				break
			}
			wl += rl
			i++
		}
		place(start, i-start, wl, int64(u))
	}
	return b
}

// Overhead captures the measured cost of a binning pass, used by the
// Figure 8 experiment.
type Overhead struct {
	U           int
	VirtualRows int
	GroupsBuilt int
	Bins        int // non-empty bins
}

// Measure summarizes a binning for overhead reporting.
func Measure(b *Binning) Overhead {
	o := Overhead{U: b.U}
	for i := range b.Bins {
		if len(b.Bins[i]) > 0 {
			o.Bins++
		}
		o.GroupsBuilt += len(b.Bins[i])
	}
	o.VirtualRows = o.GroupsBuilt
	return o
}
