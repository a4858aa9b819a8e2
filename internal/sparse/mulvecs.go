package sparse

import "fmt"

// The multi-vector reference walk. SpMV is bound by the latency of its
// loads and of each row's chain of additions, not by arithmetic, so B
// products against one matrix are cheaper as walks that apply each loaded
// (column, value) pair to several independent sums than as B walks. The
// vectors of a group are interleaved into scratch first
// (x[mulVecsWidth*c+b] = vs[b][c]), so one cache line holds a column's
// values for the whole group, and each row's sums live in registers. Each
// (row, vector) sum is MulVec's: k-ascending from 0, as
// s_b += x[mulVecsWidth*c+b] * val[k], so every result keeps MulVec's bits.
//
// mulVecsWidth vectors make a group; vectors left over keep their single
// walks. BenchmarkMulVecs backs the width: at B = 8 on a 2-vCPU Xeon
// (Sapphire Rapids), best of six, two width-4 passes take 0.60x the time of
// eight MulVec walks on spmv_fused's Mixed matrix (0.32 against 0.54 ms),
// 0.42x on BlockFEM and PowerLaw and 0.49x on Poisson. A one-pass width-8
// group was no faster on Mixed than two width-4 passes: eight sums
// and their eight products outnumber the registers, and the spilled sums
// are added in the other operand order, which keeps a NaN's payload from
// the other operand than MulVec does.
const mulVecsWidth = 4

// MulVecsChecked computes us[b] = A*vs[b] for every b with MulVecChecked's
// contract: every invariant Validate checks is checked in the same walk,
// any violation returns a.Validate() (the us then hold unspecified partial
// products), and a valid matrix gives each us[b] MulVec's bits. A single
// vector is exactly MulVecChecked. *scratch holds the interleaved vectors
// and is grown as needed. It panics if len(vs) != len(us), and, like
// MulVec, if a valid matrix meets a short vector.
func (a *CSR) MulVecsChecked(vs, us [][]float64, scratch *[]float64) error {
	if len(vs) == 1 && len(us) == 1 {
		return a.MulVecChecked(vs[0], us[0])
	}
	return a.MulVecsRowsChecked(vs, us, 0, a.Rows, scratch)
}

// MulVecsRowsChecked is MulVecsChecked over rows [lo, hi): it writes
// us[b][lo:hi] and checks the matrix's header, the row pointers bounding
// these rows and their columns, so calls over ranges that tile [0, Rows)
// check everything MulVecsChecked does. It panics if a matrix whose header
// is valid does not hold the range.
func (a *CSR) MulVecsRowsChecked(vs, us [][]float64, lo, hi int, scratch *[]float64) error {
	if len(vs) != len(us) {
		panic(fmt.Sprintf("sparse: %d vectors but %d results", len(vs), len(us)))
	}
	rows, cols := a.Rows, a.Cols
	rowPtr, colIdx, val := a.RowPtr, a.ColIdx, a.Val
	nnz := int64(len(colIdx))
	if rows < 0 || cols < 0 || len(rowPtr) != rows+1 || rowPtr[0] != 0 ||
		rowPtr[rows] != nnz || len(val) != len(colIdx) {
		return a.Validate()
	}
	if lo < 0 || hi < lo || hi > rows {
		panic(fmt.Sprintf("sparse: rows [%d,%d) outside [0,%d)", lo, hi, rows))
	}
	for b := range vs {
		if len(vs[b]) < cols || len(us[b]) < rows {
			if err := a.Validate(); err != nil {
				return err
			}
			a.MulVec(vs[b], us[b]) // panics with MulVec's message
		}
	}
	if uint64(rowPtr[lo]) > uint64(nnz) {
		return a.Validate()
	}
	m := rowWalk{rowPtr: rowPtr[lo : hi+1], colIdx: colIdx, val: val, cols: cols}
	b := 0
	for ; len(vs)-b >= mulVecsWidth; b += mulVecsWidth {
		if !m.walk4(interleave4(scratch, vs[b:], cols), us[b:], lo) {
			return a.Validate()
		}
	}
	for ; b < len(vs); b++ {
		if !m.walk1(vs[b][:cols], us[b], lo) {
			return a.Validate()
		}
	}
	return nil
}

// interleave4 writes vs[b][c] to x[4*c+b] for b < 4 and every column c,
// in a scratch of 4*cols elements grown as needed.
func interleave4(scratch *[]float64, vs [][]float64, cols int) []float64 {
	if cap(*scratch) < 4*cols {
		*scratch = make([]float64, 4*cols)
	}
	x := (*scratch)[:4*cols]
	v0, v1, v2, v3 := vs[0][:cols], vs[1][:cols], vs[2][:cols], vs[3][:cols]
	for c := range v0 {
		p := (*[4]float64)(x[4*c:])
		p[0], p[1], p[2], p[3] = v0[c], v1[c], v2[c], v3[c]
	}
	return x
}

// rowWalk is what one walk reads of a matrix: rowPtr[0] and
// rowPtr[len(rowPtr)-1] bound its rows, the first of which is row lo of
// the matrix, and rowPtr[0] is known to lie in [0, nnz]. Each walk makes
// MulVecChecked's two checks — a row's end lies in [its start, nnz], a
// column in [0, cols) — and returns false on the first violation.
type rowWalk struct {
	rowPtr []int64
	colIdx []int32
	val    []float64
	cols   int
}

// walk4 computes us[0..3][lo+r] for every row r of the walk from x, the
// interleaved vectors.
func (m *rowWalk) walk4(x []float64, us [][]float64, lo int) bool {
	nnz := int64(len(m.colIdx))
	ptr := m.rowPtr[1:]
	n := len(ptr)
	u0, u1, u2, u3 := us[0][lo:][:n], us[1][lo:][:n], us[2][lo:][:n], us[3][lo:][:n]
	cols := uint(m.cols)
	k0 := m.rowPtr[0]
	for r, k1 := range ptr {
		if uint64(k1-k0) > uint64(nnz-k0) {
			return false
		}
		cs, vs := m.colIdx[k0:k1], m.val[k0:k1]
		vs = vs[:len(cs)]
		var s0, s1, s2, s3 float64
		for k, c := range cs {
			j := uint(c)
			if j >= cols {
				return false
			}
			p := (*[4]float64)(x[4*j:])
			f := vs[k]
			s0 += p[0] * f
			s1 += p[1] * f
			s2 += p[2] * f
			s3 += p[3] * f
		}
		u0[r], u1[r], u2[r], u3[r] = s0, s1, s2, s3
		k0 = k1
	}
	return true
}

// walk1 is one vector's walk: MulVecChecked's loop over the walk's rows.
func (m *rowWalk) walk1(v, u []float64, lo int) bool {
	nnz := int64(len(m.colIdx))
	ptr := m.rowPtr[1:]
	u = u[lo:][:len(ptr)]
	k0 := m.rowPtr[0]
	for r, k1 := range ptr {
		if uint64(k1-k0) > uint64(nnz-k0) {
			return false
		}
		cs, vs := m.colIdx[k0:k1], m.val[k0:k1]
		sum := 0.0
		for k, c := range cs {
			j := int(c)
			if uint(j) >= uint(len(v)) {
				return false
			}
			sum += v[j] * vs[k]
		}
		u[r] = sum
		k0 = k1
	}
	return true
}
