package sparse

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// referenceSortRows is SortRows before it skipped strictly increasing rows:
// sort.Sort on every row. It is the oracle for TestToCSRMatchesAlwaysSort.
func referenceSortRows(a *CSR) {
	for i := 0; i < a.Rows; i++ {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		row := csrRowSorter{cols: a.ColIdx[lo:hi], vals: a.Val[lo:hi]}
		sort.Sort(row)
	}
}

// referenceToCSR is ToCSR with referenceSortRows in place of SortRows.
func referenceToCSR(c *COO) *CSR {
	a := &CSR{Rows: c.Rows, Cols: c.Cols, RowPtr: make([]int64, c.Rows+1)}
	for _, r := range c.RowIdx {
		a.RowPtr[r+1]++
	}
	for i := 0; i < c.Rows; i++ {
		a.RowPtr[i+1] += a.RowPtr[i]
	}
	a.ColIdx = make([]int32, c.NNZ())
	a.Val = make([]float64, c.NNZ())
	next := slices.Clone(a.RowPtr[:c.Rows])
	for k, r := range c.RowIdx {
		a.ColIdx[next[r]], a.Val[next[r]] = c.ColIdx[k], c.Val[k]
		next[r]++
	}
	referenceSortRows(a)
	a.sumDuplicates()
	return a
}

// TestToCSRMatchesAlwaysSort: on random COO input whose rows are strictly
// increasing, unsorted, or full of duplicate columns, ToCSR yields the
// same matrix bit for bit as sorting every row. Values span 32 orders of
// magnitude, so summing a duplicate run in any other order than today's
// would show in the bits.
func TestToCSRMatchesAlwaysSort(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	var kinds [3]int
	for trial := 0; trial < 300; trial++ {
		rows, cols := 1+rng.Intn(40), 1+rng.Intn(40)
		c := &COO{Rows: rows, Cols: cols}
		for _, i := range rng.Perm(rows) {
			n := rng.Intn(cols + 1)
			var rowCols []int
			kind := rng.Intn(3)
			switch kind {
			case 0: // strictly increasing
				rowCols = rng.Perm(cols)[:n]
				slices.Sort(rowCols)
			case 1: // distinct columns in any order
				rowCols = rng.Perm(cols)[:n]
			case 2: // runs of duplicates over a few columns
				few := 1 + rng.Intn(min(cols, 4))
				for k := 0; k < 2*n; k++ {
					rowCols = append(rowCols, rng.Intn(few))
				}
			}
			if len(rowCols) > 1 {
				kinds[kind]++
			}
			for _, j := range rowCols {
				c.Add(i, j, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(33)-16)))
			}
		}
		got, err := c.ToCSR()
		if err != nil {
			t.Fatal(err)
		}
		want := referenceToCSR(c)
		if !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColIdx, want.ColIdx) ||
			!slices.EqualFunc(got.Val, want.Val, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
			t.Fatalf("trial %d (%dx%d, %d triplets): ToCSR differs from the always-sort reference", trial, rows, cols, c.NNZ())
		}
	}
	for kind, n := range kinds {
		if n == 0 {
			t.Errorf("row kind %d never generated with more than one entry", kind)
		}
	}
}
