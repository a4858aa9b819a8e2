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

// referenceSumDuplicates is sumDuplicates before it compacted RowPtr in
// place: the new row pointers built aside, then copied over.
func referenceSumDuplicates(a *CSR) {
	w := int64(0)
	newPtr := make([]int64, len(a.RowPtr))
	for i := 0; i < a.Rows; i++ {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		for k := lo; k < hi; k++ {
			if w > newPtr[i] && a.ColIdx[w-1] == a.ColIdx[k] {
				a.Val[w-1] += a.Val[k]
				continue
			}
			a.ColIdx[w] = a.ColIdx[k]
			a.Val[w] = a.Val[k]
			w++
		}
		newPtr[i+1] = w
	}
	copy(a.RowPtr, newPtr)
	a.ColIdx = a.ColIdx[:w]
	a.Val = a.Val[:w]
}

// referenceToCSR is ToCSR as it was before PartsToCSR: a scatter through a
// copy of the row pointers whether or not the list is in row order, every
// row sorted (referenceSortRows), every row's duplicates summed
// (referenceSumDuplicates).
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
	referenceSumDuplicates(a)
	return a
}

// TestToCSRMatchesAlwaysSort: on random COO input whose rows are strictly
// increasing, unsorted, or full of duplicate columns, added in row order
// (which ToCSR copies) or not (which it scatters), ToCSR yields the same
// matrix bit for bit as the reference. Values span 32 orders of
// magnitude, so summing a duplicate run in any other order than today's
// would show in the bits.
func TestToCSRMatchesAlwaysSort(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	var kinds [3]int
	for trial := 0; trial < 300; trial++ {
		rows, cols := 1+rng.Intn(40), 1+rng.Intn(40)
		c := &COO{Rows: rows, Cols: cols}
		order := rng.Perm(rows)
		if trial%2 == 0 {
			slices.Sort(order)
		}
		for _, i := range order {
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

// TestPartsToCSRMatchesToCSR: a triplet list cut into parts at random
// points, empty parts included, converts to ToCSR's matrix bit for bit; an
// index out of range in a later part is refused with the text Validate
// gives the whole list, the list's index in it.
func TestPartsToCSRMatchesToCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 200; trial++ {
		rows, cols := 1+rng.Intn(30), 1+rng.Intn(30)
		c := &COO{Rows: rows, Cols: cols}
		for k := rng.Intn(200); k > 0; k-- {
			c.Add(rng.Intn(rows), rng.Intn(cols), rng.NormFloat64()*math.Pow(10, float64(rng.Intn(33)-16)))
		}
		if trial%2 == 0 {
			c.SortRowMajor()
		}
		bad := trial%5 == 0 && c.NNZ() > 0
		if bad {
			c.ColIdx[rng.Intn(c.NNZ())] = int32(cols + rng.Intn(3))
		}
		var parts []COO
		for lo := 0; lo < c.NNZ() || len(parts) == 0; {
			hi := min(c.NNZ(), lo+rng.Intn(20))
			parts = append(parts, COO{RowIdx: c.RowIdx[lo:hi], ColIdx: c.ColIdx[lo:hi], Val: c.Val[lo:hi]})
			lo = hi
		}
		got, err := PartsToCSR(rows, cols, parts)
		if bad {
			want := c.Validate()
			if err == nil || err.Error() != want.Error() {
				t.Fatalf("trial %d: error %v, want %v", trial, err, want)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		want := referenceToCSR(c)
		if !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColIdx, want.ColIdx) ||
			!slices.EqualFunc(got.Val, want.Val, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
			t.Fatalf("trial %d (%dx%d, %d triplets in %d parts): PartsToCSR differs from the reference", trial, rows, cols, c.NNZ(), len(parts))
		}
	}
}
