// Package sparse provides the sparse-matrix substrate for the SpMV
// auto-tuning framework: CSR and COO storage, construction and validation,
// reference SpMV, and per-row statistics.
//
// The compressed sparse row (CSR) layout follows the paper's Figure 1:
// RowPtr holds the offset of each row's first non-zero in ColIdx/Val,
// ColIdx holds column indices in row-major order, and Val the values.
package sparse

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"spmvtune/internal/errdefs"
)

// ErrInvalidMatrix classifies every structural-validation failure in this
// package: errors returned by Validate, the constructors and COO conversion
// all match it via errors.Is. Re-exported from errdefs so callers holding
// only sparse types can classify without another import.
var ErrInvalidMatrix = errdefs.ErrInvalidMatrix

// invalidf builds an ErrInvalidMatrix-classified validation error.
func invalidf(format string, args ...any) error {
	return errdefs.Invalidf("sparse: "+format, args...)
}

// CSR is a sparse matrix in compressed sparse row format.
//
// Invariants (checked by Validate):
//   - len(RowPtr) == Rows+1, RowPtr[0] == 0, RowPtr non-decreasing
//   - RowPtr[Rows] == len(ColIdx) == len(Val)
//   - 0 <= ColIdx[k] < Cols for all k
//
// A value-free matrix (Val nil, as matgen.ValueFreeCorpus builds) fails
// Validate and has no product; it serves the readers that need structure
// only: features, binning, plan fingerprints and the tuning search.
type CSR struct {
	Rows   int
	Cols   int
	RowPtr []int64
	ColIdx []int32
	Val    []float64
}

// NNZ returns the number of stored non-zero entries, counted from the
// structure so a value-free matrix reports the same count.
func (a *CSR) NNZ() int { return len(a.ColIdx) }

// RowLen returns the number of stored entries in row i.
func (a *CSR) RowLen(i int) int { return int(a.RowPtr[i+1] - a.RowPtr[i]) }

// Row returns the column indices and values of row i as sub-slices of the
// matrix storage; callers must not modify their lengths.
func (a *CSR) Row(i int) ([]int32, []float64) {
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	return a.ColIdx[lo:hi], a.Val[lo:hi]
}

// Validate checks the CSR structural invariants and returns a descriptive
// error for the first violation found.
func (a *CSR) Validate() error {
	if a.Rows < 0 || a.Cols < 0 {
		return invalidf("negative dimension %dx%d", a.Rows, a.Cols)
	}
	if len(a.RowPtr) != a.Rows+1 {
		return invalidf("len(RowPtr)=%d, want Rows+1=%d", len(a.RowPtr), a.Rows+1)
	}
	if a.RowPtr[0] != 0 {
		return invalidf("RowPtr[0]=%d, want 0", a.RowPtr[0])
	}
	for i := 0; i < a.Rows; i++ {
		if a.RowPtr[i+1] < a.RowPtr[i] {
			return invalidf("RowPtr decreases at row %d (%d -> %d)", i, a.RowPtr[i], a.RowPtr[i+1])
		}
	}
	nnz := a.RowPtr[a.Rows]
	if int64(len(a.ColIdx)) != nnz || int64(len(a.Val)) != nnz {
		return invalidf("RowPtr[Rows]=%d but len(ColIdx)=%d len(Val)=%d", nnz, len(a.ColIdx), len(a.Val))
	}
	for k, c := range a.ColIdx {
		if c < 0 || int(c) >= a.Cols {
			return invalidf("ColIdx[%d]=%d out of range [0,%d)", k, c, a.Cols)
		}
	}
	return nil
}

// HasSortedRows reports whether every row's column indices are strictly
// increasing (no duplicates).
func (a *CSR) HasSortedRows() bool {
	for i := 0; i < a.Rows; i++ {
		if cols, _ := a.Row(i); !strictlyIncreasing(cols) {
			return false
		}
	}
	return true
}

func strictlyIncreasing(cols []int32) bool {
	for k := 1; k < len(cols); k++ {
		if cols[k] <= cols[k-1] {
			return false
		}
	}
	return true
}

// SortRows sorts each row's entries by column index, keeping values paired.
// A strictly increasing row is skipped: its sorted order is unique, so no
// sort could move anything in it. Every other row goes through sort.Sort,
// whose order among equal columns decides the order sumDuplicates adds them
// in.
func (a *CSR) SortRows() { a.sortRows() }

// sortRows is SortRows, reporting whether every row was strictly increasing
// already, so that no row holds a duplicate column.
func (a *CSR) sortRows() (distinct bool) {
	var row *csrRowSorter // allocated for the first row to sort, not per row
	for i := 0; i < a.Rows; i++ {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		if strictlyIncreasing(a.ColIdx[lo:hi]) {
			continue
		}
		if row == nil {
			row = new(csrRowSorter)
		}
		*row = csrRowSorter{cols: a.ColIdx[lo:hi], vals: a.Val[lo:hi]}
		sort.Sort(row)
	}
	return row == nil
}

type csrRowSorter struct {
	cols []int32
	vals []float64
}

func (r csrRowSorter) Len() int           { return len(r.cols) }
func (r csrRowSorter) Less(i, j int) bool { return r.cols[i] < r.cols[j] }
func (r csrRowSorter) Swap(i, j int) {
	r.cols[i], r.cols[j] = r.cols[j], r.cols[i]
	r.vals[i], r.vals[j] = r.vals[j], r.vals[i]
}

// At returns A[i,j], or 0 if the entry is not stored. Rows need not be
// sorted; the scan is linear in the row length.
func (a *CSR) At(i, j int) float64 {
	cols, vals := a.Row(i)
	for k, c := range cols {
		if int(c) == j {
			return vals[k]
		}
	}
	return 0
}

// Clone returns a deep copy of the matrix.
func (a *CSR) Clone() *CSR {
	b := &CSR{
		Rows:   a.Rows,
		Cols:   a.Cols,
		RowPtr: make([]int64, len(a.RowPtr)),
		ColIdx: make([]int32, len(a.ColIdx)),
		Val:    make([]float64, len(a.Val)),
	}
	copy(b.RowPtr, a.RowPtr)
	copy(b.ColIdx, a.ColIdx)
	copy(b.Val, a.Val)
	return b
}

// Transpose returns the transpose of a as a new CSR matrix with sorted rows.
func (a *CSR) Transpose() *CSR {
	t := &CSR{
		Rows:   a.Cols,
		Cols:   a.Rows,
		RowPtr: make([]int64, a.Cols+1),
		ColIdx: make([]int32, a.NNZ()),
		Val:    make([]float64, a.NNZ()),
	}
	for _, c := range a.ColIdx {
		t.RowPtr[c+1]++
	}
	for i := 0; i < a.Cols; i++ {
		t.RowPtr[i+1] += t.RowPtr[i]
	}
	next := make([]int64, a.Cols)
	copy(next, t.RowPtr[:a.Cols])
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.Row(i)
		for k, c := range cols {
			p := next[c]
			next[c]++
			t.ColIdx[p] = int32(i)
			t.Val[p] = vals[k]
		}
	}
	return t
}

// MulVec computes u = A*v sequentially; this is the reference SpMV
// (the paper's Algorithm 1) against which every kernel is checked.
// It panics if len(v) < Cols or len(u) < Rows.
func (a *CSR) MulVec(v, u []float64) {
	if len(v) < a.Cols {
		panic(fmt.Sprintf("sparse: len(v)=%d < Cols=%d", len(v), a.Cols))
	}
	if len(u) < a.Rows {
		panic(fmt.Sprintf("sparse: len(u)=%d < Rows=%d", len(u), a.Rows))
	}
	for i := 0; i < a.Rows; i++ {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		sum := 0.0
		for k := lo; k < hi; k++ {
			sum += v[a.ColIdx[k]] * a.Val[k]
		}
		u[i] = sum
	}
}

// MulVecChecked is MulVec with Validate folded into the same walk: it
// computes u = A*v and checks every invariant Validate checks, reading
// RowPtr and ColIdx once instead of twice. The bounds up front leave one
// compare per row (RowPtr stays within [RowPtr[i], nnz], which given
// RowPtr[0] == 0 and RowPtr[Rows] == nnz is exactly "non-decreasing") and
// one unsigned compare per non-zero (a negative column wraps past Cols).
// On any violation it returns a.Validate(), so the error is Validate's own
// text, and u holds an unspecified partial product. Sums run in MulVec's
// order, so a valid matrix gives MulVec's bits. It never panics on a
// corrupt matrix; like MulVec it panics if a valid matrix meets
// len(v) < Cols or len(u) < Rows.
func (a *CSR) MulVecChecked(v, u []float64) error {
	rows, cols := a.Rows, a.Cols
	rowPtr, colIdx, val := a.RowPtr, a.ColIdx, a.Val
	nnz := int64(len(colIdx))
	if rows < 0 || cols < 0 || len(rowPtr) != rows+1 || rowPtr[0] != 0 ||
		rowPtr[rows] != nnz || len(val) != len(colIdx) {
		return a.Validate()
	}
	if len(v) < cols || len(u) < rows {
		if err := a.Validate(); err != nil {
			return err
		}
		a.MulVec(v, u) // panics with MulVec's message
	}
	v, u = v[:cols], u[:rows]
	lo := int64(0)
	for i := range u {
		hi := rowPtr[i+1]
		if uint64(hi-lo) > uint64(nnz-lo) {
			return a.Validate()
		}
		cs, vs := colIdx[lo:hi], val[lo:hi]
		sum := 0.0
		for k, c := range cs {
			j := int(c)
			if uint(j) >= uint(len(v)) {
				return a.Validate()
			}
			sum += v[j] * vs[k]
		}
		u[i] = sum
		lo = hi
	}
	return nil
}

// MulVecTranspose computes u = A^T * v without materializing the
// transpose: it scatters v[i]*row_i into u. Iterative solvers over
// nonsymmetric systems (BiCG and friends) need both products per step, and
// rebuilding A^T each time is exactly the kind of format-conversion cost
// the framework avoids.
func (a *CSR) MulVecTranspose(v, u []float64) {
	if len(v) < a.Rows {
		panic(fmt.Sprintf("sparse: len(v)=%d < Rows=%d", len(v), a.Rows))
	}
	if len(u) < a.Cols {
		panic(fmt.Sprintf("sparse: len(u)=%d < Cols=%d", len(u), a.Cols))
	}
	for j := 0; j < a.Cols; j++ {
		u[j] = 0
	}
	for i := 0; i < a.Rows; i++ {
		x := v[i]
		if x == 0 {
			continue
		}
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		for k := lo; k < hi; k++ {
			u[a.ColIdx[k]] += x * a.Val[k]
		}
	}
}

// VecApproxEqual reports whether two vectors agree element-wise within a
// combined absolute/relative tolerance. Parallel reductions reassociate
// floating-point additions, so exact equality is not expected.
func VecApproxEqual(a, b []float64, tol float64) bool {
	return FirstVecDiff(a, b, tol) < 0
}

// FirstVecDiff returns the index of the first element where a and b differ
// by more than tol (absolute or relative), or -1 if they agree. Length
// mismatch reports the shorter length as the differing index.
func FirstVecDiff(a, b []float64, tol float64) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		d := math.Abs(a[i] - b[i])
		scale := math.Max(math.Abs(a[i]), math.Abs(b[i]))
		if d > tol && d > tol*scale {
			return i
		}
	}
	if len(a) != len(b) {
		return n
	}
	return -1
}

// ErrEmptyMatrix is returned by constructors handed zero-dimension input
// where that is not meaningful.
var ErrEmptyMatrix = errors.New("sparse: empty matrix")

// NewCSRFromRows builds a CSR matrix from per-row (column, value) pairs.
// Rows are used as given (not sorted, not deduplicated).
func NewCSRFromRows(rows, cols int, entries [][]Entry) (*CSR, error) {
	if rows < 0 || cols < 0 {
		return nil, invalidf("negative dimension %dx%d", rows, cols)
	}
	if len(entries) != rows {
		return nil, invalidf("got %d row slices, want %d", len(entries), rows)
	}
	a := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int64, rows+1)}
	nnz := 0
	for _, r := range entries {
		nnz += len(r)
	}
	a.ColIdx = make([]int32, 0, nnz)
	a.Val = make([]float64, 0, nnz)
	for i, r := range entries {
		for _, e := range r {
			if e.Col < 0 || e.Col >= cols {
				return nil, invalidf("row %d: column %d out of range [0,%d)", i, e.Col, cols)
			}
			a.ColIdx = append(a.ColIdx, int32(e.Col))
			a.Val = append(a.Val, e.Val)
		}
		a.RowPtr[i+1] = int64(len(a.ColIdx))
	}
	return a, nil
}

// Entry is a single (column, value) pair within a row.
type Entry struct {
	Col int
	Val float64
}

// Figure1 returns the 4x4 example matrix from the paper's Figure 1:
//
//	[1 6 0 0]
//	[3 0 2 0]
//	[0 4 0 0]
//	[0 5 8 1]
func Figure1() *CSR {
	a, err := NewCSRFromRows(4, 4, [][]Entry{
		{{0, 1}, {1, 6}},
		{{0, 3}, {2, 2}},
		{{1, 4}},
		{{1, 5}, {2, 8}, {3, 1}},
	})
	if err != nil {
		panic(err)
	}
	return a
}
