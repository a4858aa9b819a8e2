// Package csradaptive implements the CSR-Adaptive SpMV of Greathouse &
// Daga — the state-of-the-art baseline of the paper's Figure 7. It uses
// inter-bin load balancing: adjacent rows are greedily packed into row
// blocks of roughly equal non-zero counts (fixed, hard-coded workload
// limits), and each block is processed by CSR-Stream (block data staged
// into LDS with fully coalesced loads, then per-row reductions) or by
// CSR-Vector (the whole work-group walks one long row).
//
// This contrasts with the paper's framework in exactly the two ways the
// paper describes: the balancing is inter-bin rather than intra-bin, and
// the kernel choice per block is fixed by a hard-coded rule rather than
// learned from the input.
package csradaptive

import (
	"spmvtune/internal/binning"
	"spmvtune/internal/hsa"
	"spmvtune/internal/kernels"
	"spmvtune/internal/sparse"
)

// DefaultBlockNNZ is the row-block workload limit, sized so a block's
// products fit in the 32 KiB LDS (original CSR-Adaptive uses 1024-2048).
const DefaultBlockNNZ = 2048

// Blocks is the CSR-Adaptive preprocessing result: RowStarts[i] is the
// first row of block i, with a sentinel last entry equal to Rows.
type Blocks struct {
	RowStarts []int32
	BlockNNZ  int
}

// NumBlocks returns the number of row blocks.
func (b Blocks) NumBlocks() int { return len(b.RowStarts) - 1 }

// BuildBlocks greedily packs adjacent rows so that each block holds at most
// blockNNZ non-zeros; a single row exceeding the limit becomes its own
// (CSR-Vector) block. blockNNZ <= 0 selects DefaultBlockNNZ.
func BuildBlocks(a *sparse.CSR, blockNNZ int) Blocks {
	if blockNNZ <= 0 {
		blockNNZ = DefaultBlockNNZ
	}
	b := Blocks{BlockNNZ: blockNNZ, RowStarts: []int32{0}}
	start := 0
	for start < a.Rows {
		end := start
		nnz := int64(0)
		for end < a.Rows {
			rl := a.RowPtr[end+1] - a.RowPtr[end]
			if end > start && nnz+rl > int64(blockNNZ) {
				break
			}
			nnz += rl
			end++
			if nnz >= int64(blockNNZ) {
				break
			}
		}
		b.RowStarts = append(b.RowStarts, int32(end))
		start = end
	}
	return b
}

// Run executes CSR-Adaptive over the whole matrix as one kernel launch on
// the simulated device, writing in.Us[0].
func Run(run *hsa.Run, in *kernels.Input, blocks Blocks) {
	cfg := run.Config()
	wgSize := cfg.MaxWorkGroupSize
	wfSize := cfg.WavefrontSize
	vector := kernels.VectorKernel()

	a := in.A
	for bi := 0; bi < blocks.NumBlocks(); bi++ {
		r0 := int(blocks.RowStarts[bi])
		r1 := int(blocks.RowStarts[bi+1])
		if r1-r0 == 1 && a.RowLen(r0) > blocks.BlockNNZ {
			// Long-row block: CSR-Vector (whole work-group on one row).
			vector.Run(run, in, []binning.Group{{Start: int32(r0), Count: 1}})
			continue
		}
		streamBlock(run, in, r0, r1, wgSize, wfSize)
	}
}

// streamBlock is CSR-Stream: the work-group loads the block's non-zeros
// into LDS with coalesced strided loads, then each row is reduced by one
// work-item scanning its products in LDS.
func streamBlock(run *hsa.Run, in *kernels.Input, r0, r1, wgSize, wfSize int) {
	a := in.A
	k0 := a.RowPtr[r0]
	k1 := a.RowPtr[r1]

	// Functional result.
	for r := r0; r < r1; r++ {
		lo, hi := a.RowPtr[r], a.RowPtr[r+1]
		sum := 0.0
		for k := lo; k < hi; k++ {
			sum += a.Val[k] * in.Vs[0][a.ColIdx[k]]
		}
		in.Us[0][r] = sum
	}

	g := run.BeginWG()
	wfPerWG := wgSize / wfSize
	var vAddrs []int64

	// Phase 1: stage products. The WG strides over [k0,k1) in wgSize-sized
	// chunks; wavefront w covers lanes [w*wfSize,(w+1)*wfSize) of each chunk.
	for w := 0; w < wfPerWG; w++ {
		acc := g.WF()
		// Row pointers for this wavefront's share of the block rows.
		share := (r1 - r0 + wfPerWG - 1) / wfPerWG
		lo := r0 + w*share
		hi := lo + share
		if hi > r1 {
			hi = r1
		}
		if lo < hi {
			acc.Seq(in.RegRowPtr, int64(lo), int64(hi-lo)+1)
		}
		for chunk := k0; chunk < k1; chunk += int64(wgSize) {
			s := chunk + int64(w*wfSize)
			e := s + int64(wfSize)
			if e > k1 {
				e = k1
			}
			if s >= e {
				continue
			}
			acc.Seq(in.RegColIdx, s, e-s)
			acc.Seq(in.RegVal, s, e-s)
			vAddrs = vAddrs[:0]
			for k := s; k < e; k++ {
				vAddrs = append(vAddrs, int64(a.ColIdx[k]))
			}
			acc.Gather(in.RegV, vAddrs)
			acc.ALU(1)
			acc.LDS(1)
		}
		acc.Barrier()

		// Phase 2: scalar per-row reduction — one lane per row, lock-step
		// until the wavefront's longest row is drained.
		maxLen := 0
		for r := lo; r < hi; r++ {
			if l := a.RowLen(r); l > maxLen {
				maxLen = l
			}
		}
		acc.LDS(maxLen)
		acc.ALU(maxLen + 1)
		if lo < hi {
			acc.Seq(in.RegU, int64(lo), int64(hi-lo)) // coalesced store
		}
	}
	g.End()
}

// SimulateSpMV runs the full CSR-Adaptive pipeline on a fresh device run
// and returns the result stats. u must have length >= a.Rows.
func SimulateSpMV(dev hsa.Config, a *sparse.CSR, v, u []float64, blockNNZ int) hsa.Stats {
	blocks := BuildBlocks(a, blockNNZ)
	run := hsa.NewRun(dev)
	in := kernels.NewInput(run, a, v, u)
	Run(run, in, blocks)
	return run.Stats()
}
