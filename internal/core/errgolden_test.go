package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"spmvtune/internal/errdefs"
	"spmvtune/internal/plan"
	"spmvtune/internal/sparse"
)

// executeErrorLines drives ExecutePlanBatchOpts through every combination of
// a corrupt matrix (the corruptions of sparse's TestCSRValidateErrors), a
// short v or u at B = 1 and B = 3, a plan whose shape does not match or no
// plan at all, and a canceled context. It returns one line per case:
// "<case>\t<class>\t<message>", or "<case>\tok" when the call succeeds.
func executeErrorLines(t *testing.T) []string {
	t.Helper()
	fw := guardFramework(t)
	good := sparse.Figure1()
	p, err := fw.Plan(context.Background(), good)
	if err != nil {
		t.Fatal(err)
	}
	mismatch := *p
	mismatch.NNZ++

	corruptions := []struct {
		name   string
		mutate func(*sparse.CSR)
	}{
		{"valid", func(*sparse.CSR) {}},
		{"short-rowptr", func(a *sparse.CSR) { a.RowPtr = a.RowPtr[:3] }},
		{"nonzero-first", func(a *sparse.CSR) { a.RowPtr[0] = 1 }},
		{"decreasing", func(a *sparse.CSR) { a.RowPtr[2] = 1 }},
		{"nnz-mismatch", func(a *sparse.CSR) { a.Val = a.Val[:5] }},
		{"col-out-of-range", func(a *sparse.CSR) { a.ColIdx[0] = 99 }},
		{"negative-col", func(a *sparse.CSR) { a.ColIdx[3] = -1 }},
		{"negative-dims", func(a *sparse.CSR) { a.Rows = -1 }},
	}
	plans := []struct {
		name string
		p    *plan.TuningPlan
	}{{"plan", p}, {"shape-mismatch", &mismatch}, {"nil-plan", nil}}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	ctxs := []struct {
		name string
		ctx  context.Context
	}{{"live", context.Background()}, {"canceled", canceled}}

	var lines []string
	for _, c := range corruptions {
		for _, nb := range []int{1, 3} {
			for _, short := range []string{"full", "short-v", "short-u"} {
				for _, pl := range plans {
					for _, cx := range ctxs {
						a := good.Clone()
						c.mutate(a)
						vs, us := make([][]float64, nb), make([][]float64, nb)
						for b := range vs {
							vs[b] = randVec(good.Cols, int64(b))
							us[b] = make([]float64, good.Rows)
						}
						switch short {
						case "short-v":
							vs[nb-1] = vs[nb-1][:good.Cols-1]
						case "short-u":
							us[nb-1] = us[nb-1][:good.Rows-1]
						}
						name := fmt.Sprintf("%s/B=%d/%s/%s/%s", c.name, nb, short, pl.name, cx.name)
						_, err := fw.ExecutePlanBatchOpts(cx.ctx, pl.p, a, vs, us, DefaultGuardOptions())
						lines = append(lines, name+"\t"+errorLine(err))
					}
				}
			}
		}
	}
	return lines
}

// errorLine renders err as "<class>\t<message>", the class being every
// errdefs class it matches.
func errorLine(err error) string {
	if err == nil {
		return "ok"
	}
	var classes []string
	for _, c := range errdefs.Classes() {
		if errors.Is(err, c.Err) {
			classes = append(classes, c.Name)
		}
	}
	if len(classes) == 0 {
		classes = append(classes, "unclassified")
	}
	return strings.Join(classes, ",") + "\t" + err.Error()
}

// TestExecutePlanErrorsGolden pins the error class and message of every
// invalid-input combination ExecutePlanBatchOpts can meet, against constants
// printed while the matrix was validated ahead of every other check. Moving
// that validation (into the reference product, say) must leave which error
// wins — and its text — unchanged; the constants are not to be regenerated
// to make this pass.
func TestExecutePlanErrorsGolden(t *testing.T) {
	got := executeErrorLines(t)
	want := strings.Split(strings.TrimSpace(executeErrorsGolden), "\n")
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("case %d:\n got %q\nwant %q", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Errorf("drove %d cases, golden table has %d", len(got), len(want))
	}
}

const executeErrorsGolden = `
valid/B=1/full/plan/live	ok
valid/B=1/full/plan/canceled	canceled	execution canceled: context canceled
valid/B=1/full/shape-mismatch/live	invalid	plan: matrix shape 4x4/8 does not match plan 4x4/9: invalid matrix input
valid/B=1/full/shape-mismatch/canceled	invalid	plan: matrix shape 4x4/8 does not match plan 4x4/9: invalid matrix input
valid/B=1/full/nil-plan/live	invalid	core: nil tuning plan: invalid matrix input
valid/B=1/full/nil-plan/canceled	invalid	core: nil tuning plan: invalid matrix input
valid/B=1/short-v/plan/live	invalid	core: launch validation: vector 0: len(v)=3 < Cols=4: invalid matrix input
valid/B=1/short-v/plan/canceled	invalid	core: launch validation: vector 0: len(v)=3 < Cols=4: invalid matrix input
valid/B=1/short-v/shape-mismatch/live	invalid	plan: matrix shape 4x4/8 does not match plan 4x4/9: invalid matrix input
valid/B=1/short-v/shape-mismatch/canceled	invalid	plan: matrix shape 4x4/8 does not match plan 4x4/9: invalid matrix input
valid/B=1/short-v/nil-plan/live	invalid	core: nil tuning plan: invalid matrix input
valid/B=1/short-v/nil-plan/canceled	invalid	core: nil tuning plan: invalid matrix input
valid/B=1/short-u/plan/live	invalid	core: launch validation: vector 0: len(u)=3 < Rows=4: invalid matrix input
valid/B=1/short-u/plan/canceled	invalid	core: launch validation: vector 0: len(u)=3 < Rows=4: invalid matrix input
valid/B=1/short-u/shape-mismatch/live	invalid	plan: matrix shape 4x4/8 does not match plan 4x4/9: invalid matrix input
valid/B=1/short-u/shape-mismatch/canceled	invalid	plan: matrix shape 4x4/8 does not match plan 4x4/9: invalid matrix input
valid/B=1/short-u/nil-plan/live	invalid	core: nil tuning plan: invalid matrix input
valid/B=1/short-u/nil-plan/canceled	invalid	core: nil tuning plan: invalid matrix input
valid/B=3/full/plan/live	ok
valid/B=3/full/plan/canceled	canceled	execution canceled: context canceled
valid/B=3/full/shape-mismatch/live	invalid	plan: matrix shape 4x4/8 does not match plan 4x4/9: invalid matrix input
valid/B=3/full/shape-mismatch/canceled	invalid	plan: matrix shape 4x4/8 does not match plan 4x4/9: invalid matrix input
valid/B=3/full/nil-plan/live	invalid	core: nil tuning plan: invalid matrix input
valid/B=3/full/nil-plan/canceled	invalid	core: nil tuning plan: invalid matrix input
valid/B=3/short-v/plan/live	invalid	core: launch validation: vector 2: len(v)=3 < Cols=4: invalid matrix input
valid/B=3/short-v/plan/canceled	invalid	core: launch validation: vector 2: len(v)=3 < Cols=4: invalid matrix input
valid/B=3/short-v/shape-mismatch/live	invalid	plan: matrix shape 4x4/8 does not match plan 4x4/9: invalid matrix input
valid/B=3/short-v/shape-mismatch/canceled	invalid	plan: matrix shape 4x4/8 does not match plan 4x4/9: invalid matrix input
valid/B=3/short-v/nil-plan/live	invalid	core: nil tuning plan: invalid matrix input
valid/B=3/short-v/nil-plan/canceled	invalid	core: nil tuning plan: invalid matrix input
valid/B=3/short-u/plan/live	invalid	core: launch validation: vector 2: len(u)=3 < Rows=4: invalid matrix input
valid/B=3/short-u/plan/canceled	invalid	core: launch validation: vector 2: len(u)=3 < Rows=4: invalid matrix input
valid/B=3/short-u/shape-mismatch/live	invalid	plan: matrix shape 4x4/8 does not match plan 4x4/9: invalid matrix input
valid/B=3/short-u/shape-mismatch/canceled	invalid	plan: matrix shape 4x4/8 does not match plan 4x4/9: invalid matrix input
valid/B=3/short-u/nil-plan/live	invalid	core: nil tuning plan: invalid matrix input
valid/B=3/short-u/nil-plan/canceled	invalid	core: nil tuning plan: invalid matrix input
short-rowptr/B=1/full/plan/live	invalid	sparse: len(RowPtr)=3, want Rows+1=5: invalid matrix input
short-rowptr/B=1/full/plan/canceled	invalid	sparse: len(RowPtr)=3, want Rows+1=5: invalid matrix input
short-rowptr/B=1/full/shape-mismatch/live	invalid	sparse: len(RowPtr)=3, want Rows+1=5: invalid matrix input
short-rowptr/B=1/full/shape-mismatch/canceled	invalid	sparse: len(RowPtr)=3, want Rows+1=5: invalid matrix input
short-rowptr/B=1/full/nil-plan/live	invalid	core: nil tuning plan: invalid matrix input
short-rowptr/B=1/full/nil-plan/canceled	invalid	core: nil tuning plan: invalid matrix input
short-rowptr/B=1/short-v/plan/live	invalid	sparse: len(RowPtr)=3, want Rows+1=5: invalid matrix input
short-rowptr/B=1/short-v/plan/canceled	invalid	sparse: len(RowPtr)=3, want Rows+1=5: invalid matrix input
short-rowptr/B=1/short-v/shape-mismatch/live	invalid	sparse: len(RowPtr)=3, want Rows+1=5: invalid matrix input
short-rowptr/B=1/short-v/shape-mismatch/canceled	invalid	sparse: len(RowPtr)=3, want Rows+1=5: invalid matrix input
short-rowptr/B=1/short-v/nil-plan/live	invalid	core: nil tuning plan: invalid matrix input
short-rowptr/B=1/short-v/nil-plan/canceled	invalid	core: nil tuning plan: invalid matrix input
short-rowptr/B=1/short-u/plan/live	invalid	sparse: len(RowPtr)=3, want Rows+1=5: invalid matrix input
short-rowptr/B=1/short-u/plan/canceled	invalid	sparse: len(RowPtr)=3, want Rows+1=5: invalid matrix input
short-rowptr/B=1/short-u/shape-mismatch/live	invalid	sparse: len(RowPtr)=3, want Rows+1=5: invalid matrix input
short-rowptr/B=1/short-u/shape-mismatch/canceled	invalid	sparse: len(RowPtr)=3, want Rows+1=5: invalid matrix input
short-rowptr/B=1/short-u/nil-plan/live	invalid	core: nil tuning plan: invalid matrix input
short-rowptr/B=1/short-u/nil-plan/canceled	invalid	core: nil tuning plan: invalid matrix input
short-rowptr/B=3/full/plan/live	invalid	sparse: len(RowPtr)=3, want Rows+1=5: invalid matrix input
short-rowptr/B=3/full/plan/canceled	invalid	sparse: len(RowPtr)=3, want Rows+1=5: invalid matrix input
short-rowptr/B=3/full/shape-mismatch/live	invalid	sparse: len(RowPtr)=3, want Rows+1=5: invalid matrix input
short-rowptr/B=3/full/shape-mismatch/canceled	invalid	sparse: len(RowPtr)=3, want Rows+1=5: invalid matrix input
short-rowptr/B=3/full/nil-plan/live	invalid	core: nil tuning plan: invalid matrix input
short-rowptr/B=3/full/nil-plan/canceled	invalid	core: nil tuning plan: invalid matrix input
short-rowptr/B=3/short-v/plan/live	invalid	sparse: len(RowPtr)=3, want Rows+1=5: invalid matrix input
short-rowptr/B=3/short-v/plan/canceled	invalid	sparse: len(RowPtr)=3, want Rows+1=5: invalid matrix input
short-rowptr/B=3/short-v/shape-mismatch/live	invalid	sparse: len(RowPtr)=3, want Rows+1=5: invalid matrix input
short-rowptr/B=3/short-v/shape-mismatch/canceled	invalid	sparse: len(RowPtr)=3, want Rows+1=5: invalid matrix input
short-rowptr/B=3/short-v/nil-plan/live	invalid	core: nil tuning plan: invalid matrix input
short-rowptr/B=3/short-v/nil-plan/canceled	invalid	core: nil tuning plan: invalid matrix input
short-rowptr/B=3/short-u/plan/live	invalid	sparse: len(RowPtr)=3, want Rows+1=5: invalid matrix input
short-rowptr/B=3/short-u/plan/canceled	invalid	sparse: len(RowPtr)=3, want Rows+1=5: invalid matrix input
short-rowptr/B=3/short-u/shape-mismatch/live	invalid	sparse: len(RowPtr)=3, want Rows+1=5: invalid matrix input
short-rowptr/B=3/short-u/shape-mismatch/canceled	invalid	sparse: len(RowPtr)=3, want Rows+1=5: invalid matrix input
short-rowptr/B=3/short-u/nil-plan/live	invalid	core: nil tuning plan: invalid matrix input
short-rowptr/B=3/short-u/nil-plan/canceled	invalid	core: nil tuning plan: invalid matrix input
nonzero-first/B=1/full/plan/live	invalid	sparse: RowPtr[0]=1, want 0: invalid matrix input
nonzero-first/B=1/full/plan/canceled	invalid	sparse: RowPtr[0]=1, want 0: invalid matrix input
nonzero-first/B=1/full/shape-mismatch/live	invalid	sparse: RowPtr[0]=1, want 0: invalid matrix input
nonzero-first/B=1/full/shape-mismatch/canceled	invalid	sparse: RowPtr[0]=1, want 0: invalid matrix input
nonzero-first/B=1/full/nil-plan/live	invalid	core: nil tuning plan: invalid matrix input
nonzero-first/B=1/full/nil-plan/canceled	invalid	core: nil tuning plan: invalid matrix input
nonzero-first/B=1/short-v/plan/live	invalid	sparse: RowPtr[0]=1, want 0: invalid matrix input
nonzero-first/B=1/short-v/plan/canceled	invalid	sparse: RowPtr[0]=1, want 0: invalid matrix input
nonzero-first/B=1/short-v/shape-mismatch/live	invalid	sparse: RowPtr[0]=1, want 0: invalid matrix input
nonzero-first/B=1/short-v/shape-mismatch/canceled	invalid	sparse: RowPtr[0]=1, want 0: invalid matrix input
nonzero-first/B=1/short-v/nil-plan/live	invalid	core: nil tuning plan: invalid matrix input
nonzero-first/B=1/short-v/nil-plan/canceled	invalid	core: nil tuning plan: invalid matrix input
nonzero-first/B=1/short-u/plan/live	invalid	sparse: RowPtr[0]=1, want 0: invalid matrix input
nonzero-first/B=1/short-u/plan/canceled	invalid	sparse: RowPtr[0]=1, want 0: invalid matrix input
nonzero-first/B=1/short-u/shape-mismatch/live	invalid	sparse: RowPtr[0]=1, want 0: invalid matrix input
nonzero-first/B=1/short-u/shape-mismatch/canceled	invalid	sparse: RowPtr[0]=1, want 0: invalid matrix input
nonzero-first/B=1/short-u/nil-plan/live	invalid	core: nil tuning plan: invalid matrix input
nonzero-first/B=1/short-u/nil-plan/canceled	invalid	core: nil tuning plan: invalid matrix input
nonzero-first/B=3/full/plan/live	invalid	sparse: RowPtr[0]=1, want 0: invalid matrix input
nonzero-first/B=3/full/plan/canceled	invalid	sparse: RowPtr[0]=1, want 0: invalid matrix input
nonzero-first/B=3/full/shape-mismatch/live	invalid	sparse: RowPtr[0]=1, want 0: invalid matrix input
nonzero-first/B=3/full/shape-mismatch/canceled	invalid	sparse: RowPtr[0]=1, want 0: invalid matrix input
nonzero-first/B=3/full/nil-plan/live	invalid	core: nil tuning plan: invalid matrix input
nonzero-first/B=3/full/nil-plan/canceled	invalid	core: nil tuning plan: invalid matrix input
nonzero-first/B=3/short-v/plan/live	invalid	sparse: RowPtr[0]=1, want 0: invalid matrix input
nonzero-first/B=3/short-v/plan/canceled	invalid	sparse: RowPtr[0]=1, want 0: invalid matrix input
nonzero-first/B=3/short-v/shape-mismatch/live	invalid	sparse: RowPtr[0]=1, want 0: invalid matrix input
nonzero-first/B=3/short-v/shape-mismatch/canceled	invalid	sparse: RowPtr[0]=1, want 0: invalid matrix input
nonzero-first/B=3/short-v/nil-plan/live	invalid	core: nil tuning plan: invalid matrix input
nonzero-first/B=3/short-v/nil-plan/canceled	invalid	core: nil tuning plan: invalid matrix input
nonzero-first/B=3/short-u/plan/live	invalid	sparse: RowPtr[0]=1, want 0: invalid matrix input
nonzero-first/B=3/short-u/plan/canceled	invalid	sparse: RowPtr[0]=1, want 0: invalid matrix input
nonzero-first/B=3/short-u/shape-mismatch/live	invalid	sparse: RowPtr[0]=1, want 0: invalid matrix input
nonzero-first/B=3/short-u/shape-mismatch/canceled	invalid	sparse: RowPtr[0]=1, want 0: invalid matrix input
nonzero-first/B=3/short-u/nil-plan/live	invalid	core: nil tuning plan: invalid matrix input
nonzero-first/B=3/short-u/nil-plan/canceled	invalid	core: nil tuning plan: invalid matrix input
decreasing/B=1/full/plan/live	invalid	sparse: RowPtr decreases at row 1 (2 -> 1): invalid matrix input
decreasing/B=1/full/plan/canceled	invalid	sparse: RowPtr decreases at row 1 (2 -> 1): invalid matrix input
decreasing/B=1/full/shape-mismatch/live	invalid	sparse: RowPtr decreases at row 1 (2 -> 1): invalid matrix input
decreasing/B=1/full/shape-mismatch/canceled	invalid	sparse: RowPtr decreases at row 1 (2 -> 1): invalid matrix input
decreasing/B=1/full/nil-plan/live	invalid	core: nil tuning plan: invalid matrix input
decreasing/B=1/full/nil-plan/canceled	invalid	core: nil tuning plan: invalid matrix input
decreasing/B=1/short-v/plan/live	invalid	sparse: RowPtr decreases at row 1 (2 -> 1): invalid matrix input
decreasing/B=1/short-v/plan/canceled	invalid	sparse: RowPtr decreases at row 1 (2 -> 1): invalid matrix input
decreasing/B=1/short-v/shape-mismatch/live	invalid	sparse: RowPtr decreases at row 1 (2 -> 1): invalid matrix input
decreasing/B=1/short-v/shape-mismatch/canceled	invalid	sparse: RowPtr decreases at row 1 (2 -> 1): invalid matrix input
decreasing/B=1/short-v/nil-plan/live	invalid	core: nil tuning plan: invalid matrix input
decreasing/B=1/short-v/nil-plan/canceled	invalid	core: nil tuning plan: invalid matrix input
decreasing/B=1/short-u/plan/live	invalid	sparse: RowPtr decreases at row 1 (2 -> 1): invalid matrix input
decreasing/B=1/short-u/plan/canceled	invalid	sparse: RowPtr decreases at row 1 (2 -> 1): invalid matrix input
decreasing/B=1/short-u/shape-mismatch/live	invalid	sparse: RowPtr decreases at row 1 (2 -> 1): invalid matrix input
decreasing/B=1/short-u/shape-mismatch/canceled	invalid	sparse: RowPtr decreases at row 1 (2 -> 1): invalid matrix input
decreasing/B=1/short-u/nil-plan/live	invalid	core: nil tuning plan: invalid matrix input
decreasing/B=1/short-u/nil-plan/canceled	invalid	core: nil tuning plan: invalid matrix input
decreasing/B=3/full/plan/live	invalid	sparse: RowPtr decreases at row 1 (2 -> 1): invalid matrix input
decreasing/B=3/full/plan/canceled	invalid	sparse: RowPtr decreases at row 1 (2 -> 1): invalid matrix input
decreasing/B=3/full/shape-mismatch/live	invalid	sparse: RowPtr decreases at row 1 (2 -> 1): invalid matrix input
decreasing/B=3/full/shape-mismatch/canceled	invalid	sparse: RowPtr decreases at row 1 (2 -> 1): invalid matrix input
decreasing/B=3/full/nil-plan/live	invalid	core: nil tuning plan: invalid matrix input
decreasing/B=3/full/nil-plan/canceled	invalid	core: nil tuning plan: invalid matrix input
decreasing/B=3/short-v/plan/live	invalid	sparse: RowPtr decreases at row 1 (2 -> 1): invalid matrix input
decreasing/B=3/short-v/plan/canceled	invalid	sparse: RowPtr decreases at row 1 (2 -> 1): invalid matrix input
decreasing/B=3/short-v/shape-mismatch/live	invalid	sparse: RowPtr decreases at row 1 (2 -> 1): invalid matrix input
decreasing/B=3/short-v/shape-mismatch/canceled	invalid	sparse: RowPtr decreases at row 1 (2 -> 1): invalid matrix input
decreasing/B=3/short-v/nil-plan/live	invalid	core: nil tuning plan: invalid matrix input
decreasing/B=3/short-v/nil-plan/canceled	invalid	core: nil tuning plan: invalid matrix input
decreasing/B=3/short-u/plan/live	invalid	sparse: RowPtr decreases at row 1 (2 -> 1): invalid matrix input
decreasing/B=3/short-u/plan/canceled	invalid	sparse: RowPtr decreases at row 1 (2 -> 1): invalid matrix input
decreasing/B=3/short-u/shape-mismatch/live	invalid	sparse: RowPtr decreases at row 1 (2 -> 1): invalid matrix input
decreasing/B=3/short-u/shape-mismatch/canceled	invalid	sparse: RowPtr decreases at row 1 (2 -> 1): invalid matrix input
decreasing/B=3/short-u/nil-plan/live	invalid	core: nil tuning plan: invalid matrix input
decreasing/B=3/short-u/nil-plan/canceled	invalid	core: nil tuning plan: invalid matrix input
nnz-mismatch/B=1/full/plan/live	invalid	sparse: RowPtr[Rows]=8 but len(ColIdx)=8 len(Val)=5: invalid matrix input
nnz-mismatch/B=1/full/plan/canceled	invalid	sparse: RowPtr[Rows]=8 but len(ColIdx)=8 len(Val)=5: invalid matrix input
nnz-mismatch/B=1/full/shape-mismatch/live	invalid	sparse: RowPtr[Rows]=8 but len(ColIdx)=8 len(Val)=5: invalid matrix input
nnz-mismatch/B=1/full/shape-mismatch/canceled	invalid	sparse: RowPtr[Rows]=8 but len(ColIdx)=8 len(Val)=5: invalid matrix input
nnz-mismatch/B=1/full/nil-plan/live	invalid	core: nil tuning plan: invalid matrix input
nnz-mismatch/B=1/full/nil-plan/canceled	invalid	core: nil tuning plan: invalid matrix input
nnz-mismatch/B=1/short-v/plan/live	invalid	sparse: RowPtr[Rows]=8 but len(ColIdx)=8 len(Val)=5: invalid matrix input
nnz-mismatch/B=1/short-v/plan/canceled	invalid	sparse: RowPtr[Rows]=8 but len(ColIdx)=8 len(Val)=5: invalid matrix input
nnz-mismatch/B=1/short-v/shape-mismatch/live	invalid	sparse: RowPtr[Rows]=8 but len(ColIdx)=8 len(Val)=5: invalid matrix input
nnz-mismatch/B=1/short-v/shape-mismatch/canceled	invalid	sparse: RowPtr[Rows]=8 but len(ColIdx)=8 len(Val)=5: invalid matrix input
nnz-mismatch/B=1/short-v/nil-plan/live	invalid	core: nil tuning plan: invalid matrix input
nnz-mismatch/B=1/short-v/nil-plan/canceled	invalid	core: nil tuning plan: invalid matrix input
nnz-mismatch/B=1/short-u/plan/live	invalid	sparse: RowPtr[Rows]=8 but len(ColIdx)=8 len(Val)=5: invalid matrix input
nnz-mismatch/B=1/short-u/plan/canceled	invalid	sparse: RowPtr[Rows]=8 but len(ColIdx)=8 len(Val)=5: invalid matrix input
nnz-mismatch/B=1/short-u/shape-mismatch/live	invalid	sparse: RowPtr[Rows]=8 but len(ColIdx)=8 len(Val)=5: invalid matrix input
nnz-mismatch/B=1/short-u/shape-mismatch/canceled	invalid	sparse: RowPtr[Rows]=8 but len(ColIdx)=8 len(Val)=5: invalid matrix input
nnz-mismatch/B=1/short-u/nil-plan/live	invalid	core: nil tuning plan: invalid matrix input
nnz-mismatch/B=1/short-u/nil-plan/canceled	invalid	core: nil tuning plan: invalid matrix input
nnz-mismatch/B=3/full/plan/live	invalid	sparse: RowPtr[Rows]=8 but len(ColIdx)=8 len(Val)=5: invalid matrix input
nnz-mismatch/B=3/full/plan/canceled	invalid	sparse: RowPtr[Rows]=8 but len(ColIdx)=8 len(Val)=5: invalid matrix input
nnz-mismatch/B=3/full/shape-mismatch/live	invalid	sparse: RowPtr[Rows]=8 but len(ColIdx)=8 len(Val)=5: invalid matrix input
nnz-mismatch/B=3/full/shape-mismatch/canceled	invalid	sparse: RowPtr[Rows]=8 but len(ColIdx)=8 len(Val)=5: invalid matrix input
nnz-mismatch/B=3/full/nil-plan/live	invalid	core: nil tuning plan: invalid matrix input
nnz-mismatch/B=3/full/nil-plan/canceled	invalid	core: nil tuning plan: invalid matrix input
nnz-mismatch/B=3/short-v/plan/live	invalid	sparse: RowPtr[Rows]=8 but len(ColIdx)=8 len(Val)=5: invalid matrix input
nnz-mismatch/B=3/short-v/plan/canceled	invalid	sparse: RowPtr[Rows]=8 but len(ColIdx)=8 len(Val)=5: invalid matrix input
nnz-mismatch/B=3/short-v/shape-mismatch/live	invalid	sparse: RowPtr[Rows]=8 but len(ColIdx)=8 len(Val)=5: invalid matrix input
nnz-mismatch/B=3/short-v/shape-mismatch/canceled	invalid	sparse: RowPtr[Rows]=8 but len(ColIdx)=8 len(Val)=5: invalid matrix input
nnz-mismatch/B=3/short-v/nil-plan/live	invalid	core: nil tuning plan: invalid matrix input
nnz-mismatch/B=3/short-v/nil-plan/canceled	invalid	core: nil tuning plan: invalid matrix input
nnz-mismatch/B=3/short-u/plan/live	invalid	sparse: RowPtr[Rows]=8 but len(ColIdx)=8 len(Val)=5: invalid matrix input
nnz-mismatch/B=3/short-u/plan/canceled	invalid	sparse: RowPtr[Rows]=8 but len(ColIdx)=8 len(Val)=5: invalid matrix input
nnz-mismatch/B=3/short-u/shape-mismatch/live	invalid	sparse: RowPtr[Rows]=8 but len(ColIdx)=8 len(Val)=5: invalid matrix input
nnz-mismatch/B=3/short-u/shape-mismatch/canceled	invalid	sparse: RowPtr[Rows]=8 but len(ColIdx)=8 len(Val)=5: invalid matrix input
nnz-mismatch/B=3/short-u/nil-plan/live	invalid	core: nil tuning plan: invalid matrix input
nnz-mismatch/B=3/short-u/nil-plan/canceled	invalid	core: nil tuning plan: invalid matrix input
col-out-of-range/B=1/full/plan/live	invalid	sparse: ColIdx[0]=99 out of range [0,4): invalid matrix input
col-out-of-range/B=1/full/plan/canceled	invalid	sparse: ColIdx[0]=99 out of range [0,4): invalid matrix input
col-out-of-range/B=1/full/shape-mismatch/live	invalid	sparse: ColIdx[0]=99 out of range [0,4): invalid matrix input
col-out-of-range/B=1/full/shape-mismatch/canceled	invalid	sparse: ColIdx[0]=99 out of range [0,4): invalid matrix input
col-out-of-range/B=1/full/nil-plan/live	invalid	core: nil tuning plan: invalid matrix input
col-out-of-range/B=1/full/nil-plan/canceled	invalid	core: nil tuning plan: invalid matrix input
col-out-of-range/B=1/short-v/plan/live	invalid	sparse: ColIdx[0]=99 out of range [0,4): invalid matrix input
col-out-of-range/B=1/short-v/plan/canceled	invalid	sparse: ColIdx[0]=99 out of range [0,4): invalid matrix input
col-out-of-range/B=1/short-v/shape-mismatch/live	invalid	sparse: ColIdx[0]=99 out of range [0,4): invalid matrix input
col-out-of-range/B=1/short-v/shape-mismatch/canceled	invalid	sparse: ColIdx[0]=99 out of range [0,4): invalid matrix input
col-out-of-range/B=1/short-v/nil-plan/live	invalid	core: nil tuning plan: invalid matrix input
col-out-of-range/B=1/short-v/nil-plan/canceled	invalid	core: nil tuning plan: invalid matrix input
col-out-of-range/B=1/short-u/plan/live	invalid	sparse: ColIdx[0]=99 out of range [0,4): invalid matrix input
col-out-of-range/B=1/short-u/plan/canceled	invalid	sparse: ColIdx[0]=99 out of range [0,4): invalid matrix input
col-out-of-range/B=1/short-u/shape-mismatch/live	invalid	sparse: ColIdx[0]=99 out of range [0,4): invalid matrix input
col-out-of-range/B=1/short-u/shape-mismatch/canceled	invalid	sparse: ColIdx[0]=99 out of range [0,4): invalid matrix input
col-out-of-range/B=1/short-u/nil-plan/live	invalid	core: nil tuning plan: invalid matrix input
col-out-of-range/B=1/short-u/nil-plan/canceled	invalid	core: nil tuning plan: invalid matrix input
col-out-of-range/B=3/full/plan/live	invalid	sparse: ColIdx[0]=99 out of range [0,4): invalid matrix input
col-out-of-range/B=3/full/plan/canceled	invalid	sparse: ColIdx[0]=99 out of range [0,4): invalid matrix input
col-out-of-range/B=3/full/shape-mismatch/live	invalid	sparse: ColIdx[0]=99 out of range [0,4): invalid matrix input
col-out-of-range/B=3/full/shape-mismatch/canceled	invalid	sparse: ColIdx[0]=99 out of range [0,4): invalid matrix input
col-out-of-range/B=3/full/nil-plan/live	invalid	core: nil tuning plan: invalid matrix input
col-out-of-range/B=3/full/nil-plan/canceled	invalid	core: nil tuning plan: invalid matrix input
col-out-of-range/B=3/short-v/plan/live	invalid	sparse: ColIdx[0]=99 out of range [0,4): invalid matrix input
col-out-of-range/B=3/short-v/plan/canceled	invalid	sparse: ColIdx[0]=99 out of range [0,4): invalid matrix input
col-out-of-range/B=3/short-v/shape-mismatch/live	invalid	sparse: ColIdx[0]=99 out of range [0,4): invalid matrix input
col-out-of-range/B=3/short-v/shape-mismatch/canceled	invalid	sparse: ColIdx[0]=99 out of range [0,4): invalid matrix input
col-out-of-range/B=3/short-v/nil-plan/live	invalid	core: nil tuning plan: invalid matrix input
col-out-of-range/B=3/short-v/nil-plan/canceled	invalid	core: nil tuning plan: invalid matrix input
col-out-of-range/B=3/short-u/plan/live	invalid	sparse: ColIdx[0]=99 out of range [0,4): invalid matrix input
col-out-of-range/B=3/short-u/plan/canceled	invalid	sparse: ColIdx[0]=99 out of range [0,4): invalid matrix input
col-out-of-range/B=3/short-u/shape-mismatch/live	invalid	sparse: ColIdx[0]=99 out of range [0,4): invalid matrix input
col-out-of-range/B=3/short-u/shape-mismatch/canceled	invalid	sparse: ColIdx[0]=99 out of range [0,4): invalid matrix input
col-out-of-range/B=3/short-u/nil-plan/live	invalid	core: nil tuning plan: invalid matrix input
col-out-of-range/B=3/short-u/nil-plan/canceled	invalid	core: nil tuning plan: invalid matrix input
negative-col/B=1/full/plan/live	invalid	sparse: ColIdx[3]=-1 out of range [0,4): invalid matrix input
negative-col/B=1/full/plan/canceled	invalid	sparse: ColIdx[3]=-1 out of range [0,4): invalid matrix input
negative-col/B=1/full/shape-mismatch/live	invalid	sparse: ColIdx[3]=-1 out of range [0,4): invalid matrix input
negative-col/B=1/full/shape-mismatch/canceled	invalid	sparse: ColIdx[3]=-1 out of range [0,4): invalid matrix input
negative-col/B=1/full/nil-plan/live	invalid	core: nil tuning plan: invalid matrix input
negative-col/B=1/full/nil-plan/canceled	invalid	core: nil tuning plan: invalid matrix input
negative-col/B=1/short-v/plan/live	invalid	sparse: ColIdx[3]=-1 out of range [0,4): invalid matrix input
negative-col/B=1/short-v/plan/canceled	invalid	sparse: ColIdx[3]=-1 out of range [0,4): invalid matrix input
negative-col/B=1/short-v/shape-mismatch/live	invalid	sparse: ColIdx[3]=-1 out of range [0,4): invalid matrix input
negative-col/B=1/short-v/shape-mismatch/canceled	invalid	sparse: ColIdx[3]=-1 out of range [0,4): invalid matrix input
negative-col/B=1/short-v/nil-plan/live	invalid	core: nil tuning plan: invalid matrix input
negative-col/B=1/short-v/nil-plan/canceled	invalid	core: nil tuning plan: invalid matrix input
negative-col/B=1/short-u/plan/live	invalid	sparse: ColIdx[3]=-1 out of range [0,4): invalid matrix input
negative-col/B=1/short-u/plan/canceled	invalid	sparse: ColIdx[3]=-1 out of range [0,4): invalid matrix input
negative-col/B=1/short-u/shape-mismatch/live	invalid	sparse: ColIdx[3]=-1 out of range [0,4): invalid matrix input
negative-col/B=1/short-u/shape-mismatch/canceled	invalid	sparse: ColIdx[3]=-1 out of range [0,4): invalid matrix input
negative-col/B=1/short-u/nil-plan/live	invalid	core: nil tuning plan: invalid matrix input
negative-col/B=1/short-u/nil-plan/canceled	invalid	core: nil tuning plan: invalid matrix input
negative-col/B=3/full/plan/live	invalid	sparse: ColIdx[3]=-1 out of range [0,4): invalid matrix input
negative-col/B=3/full/plan/canceled	invalid	sparse: ColIdx[3]=-1 out of range [0,4): invalid matrix input
negative-col/B=3/full/shape-mismatch/live	invalid	sparse: ColIdx[3]=-1 out of range [0,4): invalid matrix input
negative-col/B=3/full/shape-mismatch/canceled	invalid	sparse: ColIdx[3]=-1 out of range [0,4): invalid matrix input
negative-col/B=3/full/nil-plan/live	invalid	core: nil tuning plan: invalid matrix input
negative-col/B=3/full/nil-plan/canceled	invalid	core: nil tuning plan: invalid matrix input
negative-col/B=3/short-v/plan/live	invalid	sparse: ColIdx[3]=-1 out of range [0,4): invalid matrix input
negative-col/B=3/short-v/plan/canceled	invalid	sparse: ColIdx[3]=-1 out of range [0,4): invalid matrix input
negative-col/B=3/short-v/shape-mismatch/live	invalid	sparse: ColIdx[3]=-1 out of range [0,4): invalid matrix input
negative-col/B=3/short-v/shape-mismatch/canceled	invalid	sparse: ColIdx[3]=-1 out of range [0,4): invalid matrix input
negative-col/B=3/short-v/nil-plan/live	invalid	core: nil tuning plan: invalid matrix input
negative-col/B=3/short-v/nil-plan/canceled	invalid	core: nil tuning plan: invalid matrix input
negative-col/B=3/short-u/plan/live	invalid	sparse: ColIdx[3]=-1 out of range [0,4): invalid matrix input
negative-col/B=3/short-u/plan/canceled	invalid	sparse: ColIdx[3]=-1 out of range [0,4): invalid matrix input
negative-col/B=3/short-u/shape-mismatch/live	invalid	sparse: ColIdx[3]=-1 out of range [0,4): invalid matrix input
negative-col/B=3/short-u/shape-mismatch/canceled	invalid	sparse: ColIdx[3]=-1 out of range [0,4): invalid matrix input
negative-col/B=3/short-u/nil-plan/live	invalid	core: nil tuning plan: invalid matrix input
negative-col/B=3/short-u/nil-plan/canceled	invalid	core: nil tuning plan: invalid matrix input
negative-dims/B=1/full/plan/live	invalid	sparse: negative dimension -1x4: invalid matrix input
negative-dims/B=1/full/plan/canceled	invalid	sparse: negative dimension -1x4: invalid matrix input
negative-dims/B=1/full/shape-mismatch/live	invalid	sparse: negative dimension -1x4: invalid matrix input
negative-dims/B=1/full/shape-mismatch/canceled	invalid	sparse: negative dimension -1x4: invalid matrix input
negative-dims/B=1/full/nil-plan/live	invalid	core: nil tuning plan: invalid matrix input
negative-dims/B=1/full/nil-plan/canceled	invalid	core: nil tuning plan: invalid matrix input
negative-dims/B=1/short-v/plan/live	invalid	sparse: negative dimension -1x4: invalid matrix input
negative-dims/B=1/short-v/plan/canceled	invalid	sparse: negative dimension -1x4: invalid matrix input
negative-dims/B=1/short-v/shape-mismatch/live	invalid	sparse: negative dimension -1x4: invalid matrix input
negative-dims/B=1/short-v/shape-mismatch/canceled	invalid	sparse: negative dimension -1x4: invalid matrix input
negative-dims/B=1/short-v/nil-plan/live	invalid	core: nil tuning plan: invalid matrix input
negative-dims/B=1/short-v/nil-plan/canceled	invalid	core: nil tuning plan: invalid matrix input
negative-dims/B=1/short-u/plan/live	invalid	sparse: negative dimension -1x4: invalid matrix input
negative-dims/B=1/short-u/plan/canceled	invalid	sparse: negative dimension -1x4: invalid matrix input
negative-dims/B=1/short-u/shape-mismatch/live	invalid	sparse: negative dimension -1x4: invalid matrix input
negative-dims/B=1/short-u/shape-mismatch/canceled	invalid	sparse: negative dimension -1x4: invalid matrix input
negative-dims/B=1/short-u/nil-plan/live	invalid	core: nil tuning plan: invalid matrix input
negative-dims/B=1/short-u/nil-plan/canceled	invalid	core: nil tuning plan: invalid matrix input
negative-dims/B=3/full/plan/live	invalid	sparse: negative dimension -1x4: invalid matrix input
negative-dims/B=3/full/plan/canceled	invalid	sparse: negative dimension -1x4: invalid matrix input
negative-dims/B=3/full/shape-mismatch/live	invalid	sparse: negative dimension -1x4: invalid matrix input
negative-dims/B=3/full/shape-mismatch/canceled	invalid	sparse: negative dimension -1x4: invalid matrix input
negative-dims/B=3/full/nil-plan/live	invalid	core: nil tuning plan: invalid matrix input
negative-dims/B=3/full/nil-plan/canceled	invalid	core: nil tuning plan: invalid matrix input
negative-dims/B=3/short-v/plan/live	invalid	sparse: negative dimension -1x4: invalid matrix input
negative-dims/B=3/short-v/plan/canceled	invalid	sparse: negative dimension -1x4: invalid matrix input
negative-dims/B=3/short-v/shape-mismatch/live	invalid	sparse: negative dimension -1x4: invalid matrix input
negative-dims/B=3/short-v/shape-mismatch/canceled	invalid	sparse: negative dimension -1x4: invalid matrix input
negative-dims/B=3/short-v/nil-plan/live	invalid	core: nil tuning plan: invalid matrix input
negative-dims/B=3/short-v/nil-plan/canceled	invalid	core: nil tuning plan: invalid matrix input
negative-dims/B=3/short-u/plan/live	invalid	sparse: negative dimension -1x4: invalid matrix input
negative-dims/B=3/short-u/plan/canceled	invalid	sparse: negative dimension -1x4: invalid matrix input
negative-dims/B=3/short-u/shape-mismatch/live	invalid	sparse: negative dimension -1x4: invalid matrix input
negative-dims/B=3/short-u/shape-mismatch/canceled	invalid	sparse: negative dimension -1x4: invalid matrix input
negative-dims/B=3/short-u/nil-plan/live	invalid	core: nil tuning plan: invalid matrix input
negative-dims/B=3/short-u/nil-plan/canceled	invalid	core: nil tuning plan: invalid matrix input
`
