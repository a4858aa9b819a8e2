package sparse

import (
	"sort"
)

// COO is a sparse matrix in coordinate (triplet) format. It is the natural
// assembly and interchange format (Matrix Market files are COO) and converts
// to CSR for computation.
type COO struct {
	Rows, Cols int
	RowIdx     []int32
	ColIdx     []int32
	Val        []float64
}

// NNZ returns the number of stored triplets (duplicates counted), counted
// from the structure as CSR.NNZ is.
func (c *COO) NNZ() int { return len(c.ColIdx) }

// Add appends a triplet. Bounds are checked at ToCSR/Validate time so that
// bulk assembly stays cheap.
func (c *COO) Add(i, j int, v float64) {
	c.RowIdx = append(c.RowIdx, int32(i))
	c.ColIdx = append(c.ColIdx, int32(j))
	c.Val = append(c.Val, v)
}

// Validate checks lengths and index bounds.
func (c *COO) Validate() error {
	if len(c.RowIdx) != len(c.ColIdx) || len(c.RowIdx) != len(c.Val) {
		return invalidf("COO slice lengths differ: %d/%d/%d", len(c.RowIdx), len(c.ColIdx), len(c.Val))
	}
	for k := range c.RowIdx {
		if c.RowIdx[k] < 0 || int(c.RowIdx[k]) >= c.Rows {
			return invalidf("COO row index %d out of range at %d", c.RowIdx[k], k)
		}
		if c.ColIdx[k] < 0 || int(c.ColIdx[k]) >= c.Cols {
			return invalidf("COO col index %d out of range at %d", c.ColIdx[k], k)
		}
	}
	return nil
}

// ToCSR converts the triplets to CSR, summing duplicate (i,j) entries and
// sorting each row by column index.
func (c *COO) ToCSR() (*CSR, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	a := &CSR{Rows: c.Rows, Cols: c.Cols, RowPtr: make([]int64, c.Rows+1)}
	for _, r := range c.RowIdx {
		a.RowPtr[r+1]++
	}
	for i := 0; i < c.Rows; i++ {
		a.RowPtr[i+1] += a.RowPtr[i]
	}
	a.ColIdx = make([]int32, c.NNZ())
	a.Val = make([]float64, c.NNZ())
	next := make([]int64, c.Rows)
	copy(next, a.RowPtr[:c.Rows])
	for k := range c.RowIdx {
		r := c.RowIdx[k]
		p := next[r]
		next[r]++
		a.ColIdx[p] = c.ColIdx[k]
		a.Val[p] = c.Val[k]
	}
	a.SortRows()
	a.sumDuplicates()
	return a, nil
}

// sumDuplicates merges consecutive equal column indices in each (sorted)
// row, compacting the storage in place.
func (a *CSR) sumDuplicates() {
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

// FromCSR converts a CSR matrix to COO triplets in row-major order.
func FromCSR(a *CSR) *COO {
	c := &COO{
		Rows:   a.Rows,
		Cols:   a.Cols,
		RowIdx: make([]int32, 0, a.NNZ()),
		ColIdx: make([]int32, 0, a.NNZ()),
		Val:    make([]float64, 0, a.NNZ()),
	}
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.Row(i)
		for k := range cols {
			c.RowIdx = append(c.RowIdx, int32(i))
			c.ColIdx = append(c.ColIdx, cols[k])
			c.Val = append(c.Val, vals[k])
		}
	}
	return c
}

// SortRowMajor sorts the triplets by (row, col); useful before writing
// interchange files deterministically.
func (c *COO) SortRowMajor() {
	sort.Sort(cooSorter{c})
}

type cooSorter struct{ c *COO }

func (s cooSorter) Len() int { return s.c.NNZ() }
func (s cooSorter) Less(i, j int) bool {
	if s.c.RowIdx[i] != s.c.RowIdx[j] {
		return s.c.RowIdx[i] < s.c.RowIdx[j]
	}
	return s.c.ColIdx[i] < s.c.ColIdx[j]
}
func (s cooSorter) Swap(i, j int) {
	s.c.RowIdx[i], s.c.RowIdx[j] = s.c.RowIdx[j], s.c.RowIdx[i]
	s.c.ColIdx[i], s.c.ColIdx[j] = s.c.ColIdx[j], s.c.ColIdx[i]
	s.c.Val[i], s.c.Val[j] = s.c.Val[j], s.c.Val[i]
}
