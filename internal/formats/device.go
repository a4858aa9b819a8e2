package formats

import (
	"spmvtune/internal/hsa"
	"spmvtune/internal/sparse"
)

// SimulateCOOMulVec runs the classic GPU COO SpMV (Bell & Garland) on the
// device simulator: lanes stream row-major triplets with fully coalesced
// loads, combine same-row products with an in-wavefront segmented
// reduction, and one lane per distinct row commits the partial to u with
// an atomic add. u is zeroed first (COO kernels accumulate).
//
// The triplets must be sorted row-major (COO.SortRowMajor). Value-free
// triplets (Val nil) are charged alone, leaving u as it is.
func SimulateCOOMulVec(dev hsa.Config, c *sparse.COO, v, u []float64) hsa.Stats {
	run := hsa.NewRun(dev)
	regRow := run.Alloc(4, int64(c.NNZ()))
	regCol := run.Alloc(4, int64(c.NNZ()))
	regVal := run.Alloc(8, int64(c.NNZ()))
	regV := run.Alloc(8, int64(len(v)))
	regU := run.Alloc(8, int64(len(u)))

	if c.Val != nil {
		clear(u[:min(c.Rows, len(u))])
	}

	wfSize := dev.WavefrontSize
	wgSize := dev.MaxWorkGroupSize
	nnz := c.NNZ()
	vAddrs := make([]int64, 0, wfSize)
	uAddrs := make([]int64, 0, wfSize)

	for base := 0; base < nnz; base += wgSize {
		g := run.BeginWG()
		for w := 0; w < wgSize/wfSize; w++ {
			lo := base + w*wfSize
			if lo >= nnz {
				break
			}
			hi := lo + wfSize
			if hi > nnz {
				hi = nnz
			}
			acc := g.WF()
			// Coalesced triplet loads.
			acc.Seq(regRow, int64(lo), int64(hi-lo))
			acc.Seq(regCol, int64(lo), int64(hi-lo))
			acc.Seq(regVal, int64(lo), int64(hi-lo))
			vAddrs = vAddrs[:0]
			uAddrs = uAddrs[:0]
			prevRow := int32(-1)
			for k := lo; k < hi; k++ {
				vAddrs = append(vAddrs, int64(c.ColIdx[k]))
				if c.Val != nil {
					u[c.RowIdx[k]] += c.Val[k] * v[c.ColIdx[k]]
				}
				if c.RowIdx[k] != prevRow {
					prevRow = c.RowIdx[k]
					uAddrs = append(uAddrs, int64(prevRow))
				}
			}
			acc.Gather(regV, vAddrs)
			acc.ALU(1) // product
			// Segmented reduction by row key across the wavefront.
			steps := 0
			for 1<<steps < wfSize {
				steps++
			}
			acc.LDS(2 * steps)
			acc.ALU(steps)
			acc.Barrier()
			// One atomic add per distinct row in the chunk (carry rows at
			// chunk boundaries pay an extra transaction, already counted by
			// the repeated row address in the next chunk).
			acc.Gather(regU, uAddrs)
			acc.ALU(1)
		}
		g.End()
	}
	return run.Stats()
}

// SimulateMulVec runs the HYB SpMV on the device: the ELL kernel writes
// the fixed-width part and the COO kernel accumulates the overflow, as one
// launch each. The COO part is assumed row-major sorted (HYBFromCSR builds
// it that way).
func (h *HYB) SimulateMulVec(dev hsa.Config, v, u []float64) hsa.Stats {
	stats := h.Ell.SimulateMulVec(dev, v, u)
	if h.Coo.NNZ() == 0 {
		return stats
	}
	// The COO kernel must accumulate on top of the ELL result rather than
	// zeroing it: run it on a scratch vector and fold in.
	scratch := make([]float64, len(u))
	cooStats := SimulateCOOMulVec(dev, h.Coo, v, scratch)
	for i := range u {
		u[i] += scratch[i]
	}
	stats.Add(cooStats)
	return stats
}
