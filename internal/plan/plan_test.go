package plan

import (
	"errors"
	"strings"
	"testing"

	"spmvtune/internal/errdefs"
	"spmvtune/internal/matgen"
	"spmvtune/internal/sparse"
)

func TestFingerprintDeterministicAndStructural(t *testing.T) {
	a := matgen.PowerLaw(500, 4, 1.9, 100, 7)
	fp1 := Fingerprint(a)
	fp2 := Fingerprint(a)
	if fp1 != fp2 {
		t.Fatalf("fingerprint not deterministic: %s vs %s", fp1, fp2)
	}
	if len(fp1) != 32 {
		t.Fatalf("fingerprint length %d, want 32 hex chars", len(fp1))
	}

	// Same structure, different values → same fingerprint (tuning is a
	// function of the sparsity pattern only).
	b := &sparse.CSR{Rows: a.Rows, Cols: a.Cols,
		RowPtr: a.RowPtr, ColIdx: a.ColIdx, Val: make([]float64, len(a.Val))}
	for i := range b.Val {
		b.Val[i] = float64(i) * 0.5
	}
	if Fingerprint(b) != fp1 {
		t.Error("value change altered the fingerprint")
	}

	// Different structure → different fingerprint.
	c := matgen.PowerLaw(500, 4, 1.9, 100, 8)
	if Fingerprint(c) == fp1 {
		t.Error("different structure produced the same fingerprint")
	}
}

// TestFingerprintGolden pins fingerprint *values*: plans persisted under
// -cache-dir by older builds are found by them, so how Fingerprint feeds the
// hash may change but the byte stream may not. The constants were printed
// by the commit that still wrote one hash call per index.
func TestFingerprintGolden(t *testing.T) {
	cases := []struct {
		name string
		a    *sparse.CSR
		want string
	}{
		{"figure1", sparse.Figure1(), "de84933dfa67d54342c2fdb927e83e88"},
		{"empty-rows", &sparse.CSR{Rows: 6, Cols: 4,
			RowPtr: []int64{0, 0, 2, 2, 3, 3, 3},
			ColIdx: []int32{1, 3, 0},
			Val:    []float64{1, 2, 3}}, "8657cb77b96880cc699b1c1f14b24feb"},
		// Row pointers and column indices both span several 4 KiB blocks,
		// neither a whole number of them.
		{"powerlaw-3001", matgen.PowerLaw(3001, 5, 2.0, 400, 11), "b33ae460ff0b9bb822e769b7fd6d3bb0"},
	}
	for _, c := range cases {
		if got := Fingerprint(c.a); got != c.want {
			t.Errorf("%s: fingerprint %s, want %s", c.name, got, c.want)
		}
	}
}

func TestPlanEncodeDecodeRoundTrip(t *testing.T) {
	p := &TuningPlan{
		Fingerprint:  "deadbeefdeadbeefdeadbeefdeadbeef",
		ModelVersion: "abc123",
		Rows:         100, Cols: 100, NNZ: 500,
		FeatureNames: []string{"M", "N"},
		Features:     []float64{100, 100},
		U:            50, MaxBins: 100, Scheme: "coarse",
		Bins: []BinAssignment{
			{Bin: 0, Rows: 60, Groups: 2, Kernel: 0, KernelName: "serial"},
			{Bin: 3, Rows: 40, Groups: 1, Kernel: 8, KernelName: "vector"},
		},
	}
	blob, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint != p.Fingerprint || back.U != p.U || len(back.Bins) != 2 {
		t.Errorf("round trip changed plan: %+v", back)
	}
	kbb := back.KernelByBin()
	if kbb[0] != 0 || kbb[3] != 8 {
		t.Errorf("kernel map wrong: %v", kbb)
	}
	if !strings.Contains(back.String(), "U=50") {
		t.Errorf("String() = %q", back.String())
	}
}

func TestDecodeRejectsMalformedPlans(t *testing.T) {
	cases := map[string]string{
		"not json":       `{`,
		"bad scheme":     `{"scheme":"fractal","rows":1,"cols":1,"nnz":1}`,
		"coarse U=0":     `{"scheme":"coarse","u":0,"maxBins":10}`,
		"negative shape": `{"scheme":"single","rows":-1}`,
		"dup bin":        `{"scheme":"coarse","u":10,"maxBins":10,"bins":[{"bin":1,"kernel":0},{"bin":1,"kernel":0}]}`,
		"bad kernel":     `{"scheme":"coarse","u":10,"maxBins":10,"bins":[{"bin":1,"kernel":99}]}`,
		"bin over cap":   `{"scheme":"coarse","u":10,"maxBins":10,"bins":[{"bin":10,"kernel":0}]}`,
		"huge maxBins":   `{"scheme":"coarse","u":10,"maxBins":1099511627776,"rows":100,"cols":100,"nnz":460}`,
	}
	for name, blob := range cases {
		if _, err := Decode([]byte(blob)); err == nil {
			t.Errorf("%s: accepted", name)
		} else if !errors.Is(err, errdefs.ErrInvalidMatrix) {
			t.Errorf("%s: error not classified invalid: %v", name, err)
		}
	}
}

func TestCheckMatrixAndRebin(t *testing.T) {
	a := matgen.Banded(400, 5, 3)
	p := &TuningPlan{
		Fingerprint: Fingerprint(a),
		Rows:        a.Rows, Cols: a.Cols, NNZ: a.NNZ(),
		U: 100, MaxBins: 100, Scheme: "coarse",
	}
	// No kernel assignments yet → Rebin must reject (stale plan).
	if _, err := p.Rebin(a); err == nil {
		t.Error("rebin accepted a plan with uncovered bins")
	}
	// Assign every bin; Rebin then reconstructs the full layout.
	full := *p
	for bin := 0; bin < p.MaxBins; bin++ {
		full.Bins = append(full.Bins, BinAssignment{Bin: bin, Kernel: 0})
	}
	b, err := full.Rebin(a)
	if err != nil {
		t.Fatal(err)
	}
	if b.TotalRows() != a.Rows {
		t.Errorf("rebin lost rows: %d of %d", b.TotalRows(), a.Rows)
	}

	wrong := matgen.Banded(401, 5, 3)
	if err := p.CheckMatrix(wrong); err == nil {
		t.Error("shape mismatch accepted")
	} else if !errors.Is(err, errdefs.ErrInvalidMatrix) {
		t.Errorf("mismatch not classified invalid: %v", err)
	}
	if err := p.CheckMatrix(a); err != nil {
		t.Errorf("matching matrix rejected: %v", err)
	}
}
