// Package kernels implements the CSR SpMV kernels the auto-tuner chooses
// among, on the simulated HSA device. Every kernel is one KernelParams point
// — threads per row × rows per work-group × LDS tiling × reduction strategy —
// realized by one of three walkers (walkers.go):
//
//   - serial (Algorithm 3): one work-item per row, walking it in lock-step
//     with the rest of its wavefront;
//   - LDS-staged (Algorithms 4/5): X work-items cooperate on one row,
//     staging products in LDS and combining them per round;
//   - wavefront: X work-items of one wavefront keep private partials and
//     merge them with a single cross-lane combine per row.
//
// The paper's pool of nine kernels (Section III-B) is nine named points:
// Kernel-Serial is TPR=1, Kernel-SubvectorX is TPR=X with the paper's LDS
// factor 4 and tree reduction, Kernel-Vector is TPR = the work-group size.
// A launch applies the matrix to however many right-hand sides its Input
// binds — plain SpMV is the width-1 launch of the same walker a fused SpMM
// batch runs, not a separate implementation.
//
// All kernels compute identical results (u = A·v restricted to their rows)
// but differ in thread organization, so their costs diverge with row
// length: serial wins on very short rows, vector on very long ones, and
// the subvector family covers the middle — exactly the trade-off the
// auto-tuner learns.
package kernels

import (
	"fmt"
	"sync"

	"spmvtune/internal/binning"
	"spmvtune/internal/hsa"
	"spmvtune/internal/sparse"
)

// Input bundles a device-resident CSR matrix and the vectors of one launch:
// the Go slices hold the actual data (kernels execute functionally) and the
// Regions give the simulated memory layout used for coalescing analysis.
type Input struct {
	A *sparse.CSR

	// Vs/Us hold the B dense right-hand sides and outputs of the launch
	// (B = 1 for plain SpMV). RegV and RegU cover B vector slabs laid out
	// back to back — vector b's element i lives at region index b*stride+i.
	// With several vectors the stride is rounded to a segment boundary so
	// distinct vectors never share a cache segment and the batch pays its
	// honest vector-traffic footprint; a lone vector's slab is the vector.
	Vs, Us  [][]float64
	vStride int64
	uStride int64
	// v1/u1 back Vs/Us for single-vector binds, so NewInput and AcquireInput
	// need no slice allocation.
	v1, u1 [1][]float64

	RegRowPtr hsa.Region
	RegColIdx hsa.Region
	RegVal    hsa.Region
	RegV      hsa.Region
	RegU      hsa.Region
	RegBin    hsa.Region
}

// NewInput allocates simulated regions for the matrix and one vector pair
// on run.
func NewInput(run *hsa.Run, a *sparse.CSR, v, u []float64) *Input {
	in := new(Input)
	in.bindOne(run, a, v, u)
	return in
}

// NewBatchInput allocates simulated regions for a launch over the B vector
// pairs (vs[b], us[b]). Panics on empty or unequal vector counts.
func NewBatchInput(run *hsa.Run, a *sparse.CSR, vs, us [][]float64) *Input {
	in := new(Input)
	in.bind(run, a, vs, us)
	return in
}

func (in *Input) bindOne(run *hsa.Run, a *sparse.CSR, v, u []float64) {
	in.v1[0], in.u1[0] = v, u
	in.bind(run, a, in.v1[:], in.u1[:])
}

func (in *Input) bind(run *hsa.Run, a *sparse.CSR, vs, us [][]float64) {
	if len(vs) != len(us) || len(vs) == 0 {
		panic("kernels: bind needs equal, non-zero vector counts")
	}
	in.A, in.Vs, in.Us = a, vs, us
	in.vStride, in.uStride = 0, 0
	for b := range vs {
		in.vStride = max(in.vStride, int64(len(vs[b])))
		in.uStride = max(in.uStride, int64(len(us[b])))
	}
	if nb := len(vs); nb > 1 {
		// Pad each slab to a segment boundary plus one guard segment.
		segElems := max(run.Config().SegmentBytes/8, 1)
		in.vStride = ((in.vStride+segElems-1)/segElems + 1) * segElems
		in.uStride = ((in.uStride+segElems-1)/segElems + 1) * segElems
		run.SetVectors(nb)
	}
	in.RegRowPtr = run.Alloc(8, int64(len(a.RowPtr)))
	in.RegColIdx = run.Alloc(4, int64(len(a.ColIdx)))
	// Sized from ColIdx, like every structure read: a value-free matrix
	// must lay out the regions after RegVal where a valued one does.
	in.RegVal = run.Alloc(8, int64(len(a.ColIdx)))
	in.RegV = run.Alloc(8, in.vStride*int64(len(vs)))
	in.RegU = run.Alloc(8, in.uStride*int64(len(us)))
	in.RegBin = run.Alloc(4, int64(a.Rows)+1)
}

var inputPool = sync.Pool{New: func() any { return new(Input) }}

// AcquireInput is NewInput backed by a pool — one less allocation per
// launch on hot paths that perform thousands of them (the tuning search).
// The Input is valid for one launch; Release it once the kernel returned.
func AcquireInput(run *hsa.Run, a *sparse.CSR, v, u []float64) *Input {
	in := inputPool.Get().(*Input)
	in.bindOne(run, a, v, u)
	return in
}

// AcquireBatchInput is NewBatchInput backed by the input pool; Release it
// once the kernel returned, exactly like AcquireInput.
func AcquireBatchInput(run *hsa.Run, a *sparse.CSR, vs, us [][]float64) *Input {
	in := inputPool.Get().(*Input)
	in.bind(run, a, vs, us)
	return in
}

// Release returns the Input to the pool, dropping its data references.
func (in *Input) Release() {
	*in = Input{}
	inputPool.Put(in)
}

// launchScratch pools the per-launch staging slices every walker needs
// (row batches, gather address lists) so a launch allocates nothing once
// the pool is warm. Buffers are handed out with exact capacities:
// rowIter.take fills to cap(dst), so capacity is semantic — a recycled
// buffer must never leak a previous launch's larger cap.
type launchScratch struct {
	rows   []int32
	addrs  []int64
	vAddrs []int64
	runs   []hsa.LaneRun
}

var scratchPool = sync.Pool{New: func() any { return new(launchScratch) }}

func acquireScratch() *launchScratch  { return scratchPool.Get().(*launchScratch) }
func releaseScratch(s *launchScratch) { scratchPool.Put(s) }

func (s *launchScratch) rowBuf(n int) []int32 {
	if cap(s.rows) < n {
		s.rows = make([]int32, n)
	}
	return s.rows[:0:n]
}

func (s *launchScratch) addrBuf(n int) []int64 {
	if cap(s.addrs) < n {
		s.addrs = make([]int64, n)
	}
	return s.addrs[:0:n]
}

func (s *launchScratch) vAddrBuf(n int) []int64 {
	if cap(s.vAddrs) < n {
		s.vAddrs = make([]int64, n)
	}
	return s.vAddrs[:0:n]
}

func (s *launchScratch) runBuf(n int) []hsa.LaneRun {
	if cap(s.runs) < n {
		s.runs = make([]hsa.LaneRun, n)
	}
	return s.runs[:0:n]
}

// Kernel is one SpMV implementation: the realization of a KernelParams
// point on the device a launch runs on. Run processes exactly the rows
// covered by groups for every vector pair bound to the Input, writing
// Us[b][row] for each, and accounts device activity on run; Account does
// the accounting alone.
type Kernel struct {
	P KernelParams
	// name is set for the paper's pool points, which keep their historical
	// names (they are class labels in trained models and persisted plans);
	// every other point is named after its parameters.
	name string
}

// Name returns the kernel's registry name.
func (k Kernel) Name() string {
	if k.name != "" {
		return k.name
	}
	return k.P.Name()
}

// Info identifies a kernel in a space; IDs are the class labels used by
// the stage-2 decision tree.
type Info struct {
	ID     int
	Name   string
	Kernel Kernel
}

// Pool returns the paper's nine-kernel candidate pool in ID order: serial,
// subvector2..subvector128, vector.
func Pool() []Info {
	var infos []Info
	for id, p := range poolParams() {
		name := fmt.Sprintf("subvector%d", p.TPR)
		switch p.TPR {
		case 1:
			name = "serial"
		case vectorTPR:
			name = "vector"
		}
		infos = append(infos, Info{ID: id, Name: name, Kernel: Kernel{P: p, name: name}})
	}
	return infos
}

// VectorKernel returns the Kernel-Vector instance (whole work-group per
// row), used directly by the CSR-Adaptive baseline for its long-row blocks.
func VectorKernel() Kernel {
	pool := Pool()
	return pool[len(pool)-1].Kernel
}

// ByName resolves a kernel name over the full synthesized superset (the
// pool names keep their IDs — see Space). Space-restricted lookups go
// through SpaceByName + Space.ByID.
func ByName(name string) (Info, bool) {
	for _, k := range SynthSpace().Infos {
		if k.Name == name {
			return k, true
		}
	}
	return Info{}, false
}

// ByID resolves a kernel ID over the full synthesized superset: IDs
// 0..len(Pool())-1 are exactly the pool, higher IDs the synthesized
// points, so executors accept plans from every space. Validation paths
// that must reject IDs outside a specific space use Space.ByID instead.
func ByID(id int) (Info, bool) {
	return SynthSpace().ByID(id)
}

// rowIter walks the rows of a group list in order.
type rowIter struct {
	groups []binning.Group
	gi     int
	off    int32
}

// next returns the next row index, or false when exhausted.
func (it *rowIter) next() (int32, bool) {
	for it.gi < len(it.groups) {
		g := it.groups[it.gi]
		if it.off < g.Count {
			r := g.Start + it.off
			it.off++
			return r, true
		}
		it.gi++
		it.off = 0
	}
	return 0, false
}

// take fills dst with up to cap(dst) consecutive rows; returns the filled
// prefix.
func (it *rowIter) take(dst []int32) []int32 {
	dst = dst[:0]
	for len(dst) < cap(dst) {
		r, ok := it.next()
		if !ok {
			break
		}
		dst = append(dst, r)
	}
	return dst
}

// log2ceil returns ceil(log2(n)) for n >= 1.
func log2ceil(n int) int {
	s := 0
	for v := 1; v < n; v <<= 1 {
		s++
	}
	return s
}
