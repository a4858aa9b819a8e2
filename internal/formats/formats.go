// Package formats implements the alternative sparse storage formats the
// paper positions CSR against (Sections I, II-B and V): COO, ELLPACK, DIA
// and the ELL+COO hybrid. Each provides conversion from/to CSR and a
// sequential SpMV, and ELL additionally has a simulated-device kernel so
// the "SIMD-friendly but padding-wasteful" trade-off can be measured.
//
// The paper's case for staying in CSR is that converting to a friendlier
// format costs non-negligible time and space; the conversion functions
// here are written to be measured (see BenchmarkFormatConversion) so that
// argument can be quantified rather than assumed.
package formats

import (
	"fmt"

	"spmvtune/internal/hsa"
	"spmvtune/internal/sparse"
)

// PadCol is the column sentinel used for padding slots in ELL storage.
const PadCol = int32(-1)

// ELL is ELLPACK storage: every row occupies exactly Width slots, stored
// column-major (slot-major) so that lane r of a SIMD unit reading slot t
// touches Data[t*Rows+r] — consecutive addresses across rows, the layout
// GPUs coalesce perfectly.
type ELL struct {
	Rows, Cols, Width int
	ColIdx            []int32   // len Rows*Width, PadCol in padding slots
	Val               []float64 // len Rows*Width, 0 in padding slots
}

// MaxELLExpansion bounds the padding blow-up FromCSR accepts: an ELL
// matrix may hold at most this many times the CSR non-zeros.
const MaxELLExpansion = 20

// ELLFromCSR converts a CSR matrix to ELLPACK. It fails if the padded size
// would exceed MaxELLExpansion times the stored non-zeros (the failure mode
// that makes ELL unusable for power-law matrices). A value-free matrix
// (Val nil) converts to a value-free ELL.
func ELLFromCSR(a *sparse.CSR) (*ELL, error) {
	st := sparse.ComputeRowStats(a)
	width := st.Max
	padded := int64(a.Rows) * int64(width)
	if a.NNZ() > 0 && padded > int64(MaxELLExpansion)*int64(a.NNZ()) {
		return nil, fmt.Errorf("formats: ELL width %d would expand %d nnz to %d slots (> %dx)",
			width, a.NNZ(), padded, MaxELLExpansion)
	}
	e := newELL(a, width)
	for r := 0; r < a.Rows; r++ {
		for t, k := 0, a.RowPtr[r]; k < a.RowPtr[r+1]; t, k = t+1, k+1 {
			e.set(t, r, a, k)
		}
	}
	return e, nil
}

// newELL returns a's ELL form at the given width with every slot padding,
// holding values only if a does.
func newELL(a *sparse.CSR, width int) *ELL {
	padded := a.Rows * width
	e := &ELL{Rows: a.Rows, Cols: a.Cols, Width: width, ColIdx: make([]int32, padded)}
	if a.Val != nil {
		e.Val = make([]float64, padded)
	}
	for i := range e.ColIdx {
		e.ColIdx[i] = PadCol
	}
	return e
}

// set stores a's entry k in slot t of row r.
func (e *ELL) set(t, r int, a *sparse.CSR, k int64) {
	e.ColIdx[t*e.Rows+r] = a.ColIdx[k]
	if e.Val != nil {
		e.Val[t*e.Rows+r] = a.Val[k]
	}
}

// MulVec computes u = E*v sequentially.
func (e *ELL) MulVec(v, u []float64) {
	for r := 0; r < e.Rows; r++ {
		sum := 0.0
		for t := 0; t < e.Width; t++ {
			c := e.ColIdx[t*e.Rows+r]
			if c == PadCol {
				break // rows are packed front-to-back
			}
			sum += e.Val[t*e.Rows+r] * v[c]
		}
		u[r] = sum
	}
}

// ToCSR converts back to CSR (exact inverse of ELLFromCSR for matrices
// with sorted rows).
func (e *ELL) ToCSR() *sparse.CSR {
	a := &sparse.CSR{Rows: e.Rows, Cols: e.Cols, RowPtr: make([]int64, e.Rows+1)}
	for r := 0; r < e.Rows; r++ {
		for t := 0; t < e.Width; t++ {
			c := e.ColIdx[t*e.Rows+r]
			if c == PadCol {
				break
			}
			a.ColIdx = append(a.ColIdx, c)
			a.Val = append(a.Val, e.Val[t*e.Rows+r])
		}
		a.RowPtr[r+1] = int64(len(a.ColIdx))
	}
	return a
}

// SimulateMulVec runs the canonical one-lane-per-row ELL kernel on the
// device simulator: iteration t loads slot t of 64 consecutive rows — a
// fully coalesced stream — but every wavefront iterates the full Width,
// which is exactly the padding waste that kills ELL on skewed matrices.
// A value-free ELL is charged alone: u is left as it is, and v and u only
// give the vector regions their lengths.
func (e *ELL) SimulateMulVec(dev hsa.Config, v, u []float64) hsa.Stats {
	run := hsa.NewRun(dev)
	regCol := run.Alloc(4, int64(len(e.ColIdx)))
	regVal := run.Alloc(8, int64(len(e.ColIdx)))
	regV := run.Alloc(8, int64(len(v)))
	regU := run.Alloc(8, int64(len(u)))

	wfSize := dev.WavefrontSize
	wgSize := dev.MaxWorkGroupSize
	vAddrs := make([]int64, 0, wfSize)
	for base := 0; base < e.Rows; base += wgSize {
		g := run.BeginWG()
		for w := 0; w < wgSize/wfSize; w++ {
			lo := base + w*wfSize
			if lo >= e.Rows {
				break
			}
			hi := lo + wfSize
			if hi > e.Rows {
				hi = e.Rows
			}
			acc := g.WF()
			if e.Val != nil {
				clear(u[lo:hi])
			}
			for t := 0; t < e.Width; t++ {
				// Coalesced slot loads across the wavefront's rows.
				acc.Seq(regCol, int64(t*e.Rows+lo), int64(hi-lo))
				acc.Seq(regVal, int64(t*e.Rows+lo), int64(hi-lo))
				vAddrs = vAddrs[:0]
				for r := lo; r < hi; r++ {
					c := e.ColIdx[t*e.Rows+r]
					if c == PadCol {
						continue
					}
					vAddrs = append(vAddrs, int64(c))
					if e.Val != nil {
						u[r] += e.Val[t*e.Rows+r] * v[c]
					}
				}
				acc.Gather(regV, vAddrs)
				acc.ALU(2)
			}
			acc.Seq(regU, int64(lo), int64(hi-lo))
		}
		g.End()
	}
	return run.Stats()
}

// DIA is diagonal storage: Offsets lists the stored diagonals (0 = main,
// positive = superdiagonals) and Data holds them row-aligned —
// Data[d*Rows+i] is A[i, i+Offsets[d]].
type DIA struct {
	Rows, Cols int
	Offsets    []int
	Data       []float64
}

// MaxDIADiagonals bounds how many distinct diagonals DIAFromCSR accepts.
const MaxDIADiagonals = 512

// DIAFromCSR converts a CSR matrix to DIA storage; it fails when the
// matrix has more than MaxDIADiagonals occupied diagonals (the failure
// mode that restricts DIA to banded/stencil matrices).
func DIAFromCSR(a *sparse.CSR) (*DIA, error) {
	seen := map[int]bool{}
	var offs []int
	for i := 0; i < a.Rows; i++ {
		cols, _ := a.Row(i)
		for _, c := range cols {
			d := int(c) - i
			if !seen[d] {
				seen[d] = true
				offs = append(offs, d)
				if len(offs) > MaxDIADiagonals {
					return nil, fmt.Errorf("formats: matrix has > %d occupied diagonals", MaxDIADiagonals)
				}
			}
		}
	}
	// Deterministic order.
	for i := 1; i < len(offs); i++ {
		for j := i; j > 0 && offs[j-1] > offs[j]; j-- {
			offs[j-1], offs[j] = offs[j], offs[j-1]
		}
	}
	idx := map[int]int{}
	for di, d := range offs {
		idx[d] = di
	}
	dia := &DIA{Rows: a.Rows, Cols: a.Cols, Offsets: offs,
		Data: make([]float64, len(offs)*a.Rows)}
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.Row(i)
		for k, c := range cols {
			dia.Data[idx[int(c)-i]*a.Rows+i] = vals[k]
		}
	}
	return dia, nil
}

// MulVec computes u = D*v sequentially, streaming one diagonal at a time
// (the access pattern that makes DIA ideal for stencils).
func (d *DIA) MulVec(v, u []float64) {
	for i := range u[:d.Rows] {
		u[i] = 0
	}
	for di, off := range d.Offsets {
		lo, hi := 0, d.Rows
		if off < 0 {
			lo = -off
		}
		if d.Cols-off < hi {
			hi = d.Cols - off
		}
		diag := d.Data[di*d.Rows : (di+1)*d.Rows]
		for i := lo; i < hi; i++ {
			u[i] += diag[i] * v[i+off]
		}
	}
}

// ToCSR converts DIA back to CSR, dropping explicit zeros introduced by
// diagonal padding.
func (d *DIA) ToCSR() *sparse.CSR {
	coo := &sparse.COO{Rows: d.Rows, Cols: d.Cols}
	for di, off := range d.Offsets {
		for i := 0; i < d.Rows; i++ {
			j := i + off
			if j < 0 || j >= d.Cols {
				continue
			}
			if v := d.Data[di*d.Rows+i]; v != 0 {
				coo.Add(i, j, v)
			}
		}
	}
	a, err := coo.ToCSR()
	if err != nil {
		panic(err) // indices are in range by construction
	}
	return a
}

// HYB is the ELL+COO hybrid of Bell & Garland: the first Width entries of
// each row go to a fixed-width ELL part, the overflow to COO.
type HYB struct {
	Ell *ELL
	Coo *sparse.COO
}

// HYBFromCSR splits a CSR matrix at the given ELL width; width <= 0 uses
// the mean row length rounded up (the standard heuristic). A value-free
// matrix splits into value-free parts.
func HYBFromCSR(a *sparse.CSR, width int) *HYB {
	if width <= 0 {
		st := sparse.ComputeRowStats(a)
		width = int(st.Mean + 0.999)
		if width < 1 {
			width = 1
		}
	}
	ell := newELL(a, width)
	coo := &sparse.COO{Rows: a.Rows, Cols: a.Cols}
	for r := 0; r < a.Rows; r++ {
		for t, k := 0, a.RowPtr[r]; k < a.RowPtr[r+1]; t, k = t+1, k+1 {
			if t < width {
				ell.set(t, r, a, k)
				continue
			}
			coo.RowIdx = append(coo.RowIdx, int32(r))
			coo.ColIdx = append(coo.ColIdx, a.ColIdx[k])
			if a.Val != nil {
				coo.Val = append(coo.Val, a.Val[k])
			}
		}
	}
	return &HYB{Ell: ell, Coo: coo}
}

// MulVec computes u = H*v sequentially.
func (h *HYB) MulVec(v, u []float64) {
	h.Ell.MulVec(v, u)
	for k := range h.Coo.Val {
		u[h.Coo.RowIdx[k]] += h.Coo.Val[k] * v[h.Coo.ColIdx[k]]
	}
}

// COOMulVec computes u = C*v from triplets (u must be pre-sized; it is
// zeroed here). The paper's COO background format.
func COOMulVec(c *sparse.COO, v, u []float64) {
	for i := range u[:c.Rows] {
		u[i] = 0
	}
	for k := range c.Val {
		u[c.RowIdx[k]] += c.Val[k] * v[c.ColIdx[k]]
	}
}

// Bytes reports the storage footprint of each format for a CSR matrix —
// the space half of the paper's conversion-overhead argument. Formats that
// reject the matrix (ELL blow-up, DIA diagonal cap) are omitted.
func Bytes(a *sparse.CSR) map[string]int64 {
	out := map[string]int64{
		"csr": int64(len(a.RowPtr))*8 + int64(a.NNZ())*(4+8),
		"coo": int64(a.NNZ()) * (4 + 4 + 8),
	}
	if e, err := ELLFromCSR(a); err == nil {
		out["ell"] = int64(len(e.ColIdx)) * (4 + 8)
	}
	if d, err := DIAFromCSR(a); err == nil {
		out["dia"] = int64(len(d.Data))*8 + int64(len(d.Offsets))*8
	}
	h := HYBFromCSR(a, 0)
	out["hyb"] = int64(len(h.Ell.ColIdx))*(4+8) + int64(h.Coo.NNZ())*(4+4+8)
	return out
}
