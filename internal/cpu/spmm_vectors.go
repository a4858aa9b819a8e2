package cpu

import (
	"fmt"
	"sort"
	"sync"

	"spmvtune/internal/sparse"
)

// This file is the multi-vector (SpMM) fast path over separate dense
// vectors — the layout the serving batch coalescer works in (each request
// owns its own v and u slice). Each worker's rows run through the
// reference's multi-vector walk, sparse.(*CSR).MulVecsRowsChecked: the
// vectors are interleaved into the worker's scratch and every row is
// applied to a group of them at once, the structure amortization the fused
// device kernels model. Per (vector, row) the accumulation is k-ascending,
// so every output vector is byte-identical to the corresponding
// single-vector MulVec result.

// SpMMWorkspace holds the partition bounds and each worker's interleave
// scratch and error so steady-state SpMM calls allocate nothing. The zero
// value is ready to use; one workspace serves one call at a time.
type SpMMWorkspace struct {
	bounds  []int
	scratch [][]float64
	errs    []error
}

func (ws *SpMMWorkspace) bufs(w int) ([]int, [][]float64, []error) {
	if cap(ws.bounds) < w+1 {
		ws.bounds = make([]int, w+1)
	}
	for len(ws.scratch) < w {
		ws.scratch = append(ws.scratch, nil)
		ws.errs = append(ws.errs, nil)
	}
	errs := ws.errs[:w]
	clear(errs)
	return ws.bounds[:w+1], ws.scratch[:w], errs
}

func checkSpMMArgs(a *sparse.CSR, vs, us [][]float64) error {
	if len(vs) == 0 || len(vs) != len(us) {
		return fmt.Errorf("cpu: SpMM needs equal, non-zero vector counts (got %d/%d)", len(vs), len(us))
	}
	for b := range vs {
		if len(vs[b]) < a.Cols {
			return fmt.Errorf("cpu: SpMM vector %d: len(v)=%d < Cols=%d", b, len(vs[b]), a.Cols)
		}
		if len(us[b]) < a.Rows {
			return fmt.Errorf("cpu: SpMM vector %d: len(u)=%d < Rows=%d", b, len(us[b]), a.Rows)
		}
	}
	return nil
}

// SpMM computes us[b] = A*vs[b] for every bound vector, rows distributed
// over workers by non-zero count (the MulVecNNZ partitioner: whole rows per
// worker, so each output is byte-identical to MulVec). Each worker checks
// its rows as it walks them, so a corrupt matrix returns Validate's error.
// A non-nil ws makes repeated calls allocation-free at workers<=1; parallel
// calls still pay only the goroutine spawns.
func SpMM(a *sparse.CSR, vs, us [][]float64, workers int, ws *SpMMWorkspace) error {
	if err := checkSpMMArgs(a, vs, us); err != nil {
		return err
	}
	if a.Rows < 0 || len(a.RowPtr) != a.Rows+1 {
		return a.Validate() // no partition to search
	}
	w := Workers(workers)
	if w > a.Rows {
		w = a.Rows
	}
	if ws == nil {
		ws = new(SpMMWorkspace)
	}
	if w <= 1 {
		_, scratch, _ := ws.bufs(1)
		return a.MulVecsRowsChecked(vs, us, 0, a.Rows, &scratch[0])
	}
	bounds, scratch, errs := ws.bufs(w)
	nnzBoundariesInto(a, w, bounds)
	var wg sync.WaitGroup
	for p := 0; p < w; p++ {
		lo, hi := bounds[p], bounds[p+1]
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(p, lo, hi int) {
			defer wg.Done()
			errs[p] = a.MulVecsRowsChecked(vs, us, lo, hi, &scratch[p])
		}(p, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// nnzBoundariesInto is NNZBoundaries writing into caller storage (len w+1).
func nnzBoundariesInto(a *sparse.CSR, w int, bounds []int) {
	total := a.RowPtr[a.Rows]
	bounds[0] = 0
	for p := 1; p < w; p++ {
		target := total * int64(p) / int64(w)
		bounds[p] = sort.Search(a.Rows, func(i int) bool { return a.RowPtr[i+1] > target })
	}
	bounds[w] = a.Rows
	for p := 1; p <= w; p++ {
		if bounds[p] < bounds[p-1] {
			bounds[p] = bounds[p-1]
		}
	}
}
