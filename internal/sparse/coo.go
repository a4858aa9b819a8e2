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
func (c *COO) Validate() error { return c.validate(c.Rows, c.Cols, 0) }

// validate is Validate for c as a part of a rows×cols triplet list whose
// first base triplets precede it: an error names the list's index.
func (c *COO) validate(rows, cols, base int) error {
	if len(c.RowIdx) != len(c.ColIdx) || len(c.RowIdx) != len(c.Val) {
		return invalidf("COO slice lengths differ: %d/%d/%d", len(c.RowIdx), len(c.ColIdx), len(c.Val))
	}
	for k := range c.RowIdx {
		if c.RowIdx[k] < 0 || int(c.RowIdx[k]) >= rows {
			return invalidf("COO row index %d out of range at %d", c.RowIdx[k], base+k)
		}
		if c.ColIdx[k] < 0 || int(c.ColIdx[k]) >= cols {
			return invalidf("COO col index %d out of range at %d", c.ColIdx[k], base+k)
		}
	}
	return nil
}

// ToCSR converts the triplets to CSR, summing duplicate (i,j) entries and
// sorting each row by column index.
func (c *COO) ToCSR() (*CSR, error) {
	return PartsToCSR(c.Rows, c.Cols, []COO{*c})
}

// PartsToCSR converts one rows×cols triplet list held as consecutive parts
// (their own Rows and Cols are not read) to CSR, exactly as ToCSR converts
// the concatenated list: a counting sort that walks the parts in order, so
// each row's triplets keep the list's order, then SortRows and
// sumDuplicates. The result has the same bits, and an error the same text,
// its triplet index counted across parts.
//
// A list already in row order, as every Matrix Market writer emits one, is
// its own counting sort, so it is copied; and when every row is strictly
// increasing there is nothing to sort and no duplicate to sum.
func PartsToCSR(rows, cols int, parts []COO) (*CSR, error) {
	nnz := 0
	for k := range parts {
		if err := parts[k].validate(rows, cols, nnz); err != nil {
			return nil, err
		}
		nnz += parts[k].NNZ()
	}
	a := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int64, rows+1)}
	// inOrder: the list is row-major; distinct: then each row's columns
	// also strictly increase.
	inOrder, distinct := true, true
	lastRow, lastCol := int32(0), int32(-1)
	for k := range parts {
		p := &parts[k]
		for t, r := range p.RowIdx {
			a.RowPtr[r+1]++
			c := p.ColIdx[t]
			if r < lastRow {
				inOrder = false
			} else if r == lastRow && c <= lastCol {
				distinct = false
			}
			lastRow, lastCol = r, c
		}
	}
	for i := 0; i < rows; i++ {
		a.RowPtr[i+1] += a.RowPtr[i]
	}
	a.ColIdx = make([]int32, nnz)
	a.Val = make([]float64, nnz)
	if inOrder {
		d := 0
		for k := range parts {
			copy(a.ColIdx[d:], parts[k].ColIdx)
			d += copy(a.Val[d:], parts[k].Val)
		}
	} else {
		// RowPtr[r] is row r's next free slot during the scatter, which
		// leaves it at row r's end, where RowPtr[r+1] belongs.
		for k := range parts {
			p := &parts[k]
			for t, r := range p.RowIdx {
				d := a.RowPtr[r]
				a.RowPtr[r]++
				a.ColIdx[d] = p.ColIdx[t]
				a.Val[d] = p.Val[t]
			}
		}
		copy(a.RowPtr[1:], a.RowPtr[:rows])
		a.RowPtr[0] = 0
	}
	if !(inOrder && distinct) && !a.sortRows() {
		a.sumDuplicates()
	}
	return a, nil
}

// sumDuplicates merges consecutive equal column indices in each (sorted)
// row, compacting the storage and RowPtr in place.
func (a *CSR) sumDuplicates() {
	w, lo := int64(0), int64(0)
	for i := 0; i < a.Rows; i++ {
		start, hi := w, a.RowPtr[i+1]
		for k := lo; k < hi; k++ {
			if w > start && a.ColIdx[w-1] == a.ColIdx[k] {
				a.Val[w-1] += a.Val[k]
				continue
			}
			a.ColIdx[w] = a.ColIdx[k]
			a.Val[w] = a.Val[k]
			w++
		}
		a.RowPtr[i+1] = w
		lo = hi
	}
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
