package binning

import (
	"math"
	"math/rand"
	"testing"

	"spmvtune/internal/matgen"
	"spmvtune/internal/sparse"
)

func TestGranularities(t *testing.T) {
	us := Granularities()
	if us[0] != 10 || us[len(us)-1] != 1000000 {
		t.Errorf("granularity range = %d..%d, want 10..10^6", us[0], us[len(us)-1])
	}
	for i := 1; i < len(us); i++ {
		if us[i] <= us[i-1] {
			t.Errorf("granularities not increasing at %d", i)
		}
	}
	// Paper values 10, 20, 50, 100 present.
	want := map[int]bool{10: true, 20: true, 50: true, 100: true}
	for _, u := range us {
		delete(want, u)
	}
	if len(want) != 0 {
		t.Errorf("missing paper granularities: %v", want)
	}
}

func TestWorkloads(t *testing.T) {
	// Figure 1 matrix has row lengths 2,2,1,3.
	a := sparse.Figure1()
	wl := Workloads(a, 2)
	if len(wl) != 2 || wl[0] != 4 || wl[1] != 4 {
		t.Errorf("workloads U=2 = %v, want [4 4]", wl)
	}
	wl = Workloads(a, 3)
	if len(wl) != 2 || wl[0] != 5 || wl[1] != 3 {
		t.Errorf("workloads U=3 = %v, want [5 3] (tail virtual row)", wl)
	}
	wl = Workloads(a, 100)
	if len(wl) != 1 || wl[0] != 8 {
		t.Errorf("workloads U=100 = %v, want [8]", wl)
	}
	// U<1 clamps to 1.
	wl = Workloads(a, 0)
	if len(wl) != 4 || wl[2] != 1 {
		t.Errorf("workloads U=0 = %v", wl)
	}
}

func TestCoarsePaperExample(t *testing.T) {
	// Section III-B example: 10 rows, first 5 with 1 nnz, last 5 with 9.
	entries := make([][]sparse.Entry, 10)
	for i := 0; i < 5; i++ {
		entries[i] = []sparse.Entry{{Col: i, Val: 1}}
	}
	for i := 5; i < 10; i++ {
		for j := 0; j < 9; j++ {
			entries[i] = append(entries[i], sparse.Entry{Col: j, Val: 1})
		}
	}
	a, err := sparse.NewCSRFromRows(10, 10, entries)
	if err != nil {
		t.Fatal(err)
	}
	// With U=5 the first virtual row (wl=5) goes to bin 1 and the second
	// (wl=45) to bin 9 — short and medium rows separated, as the paper
	// argues.
	b := Coarse(a, 5, DefaultMaxBins)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(b.Bins[1]) != 1 || b.Bins[1][0] != (Group{Start: 0, Count: 5}) {
		t.Errorf("bin 1 = %v, want first five rows", b.Bins[1])
	}
	if len(b.Bins[9]) != 1 || b.Bins[9][0] != (Group{Start: 5, Count: 5}) {
		t.Errorf("bin 9 = %v, want last five rows", b.Bins[9])
	}
}

func TestCoarseOverflowBin(t *testing.T) {
	// One extremely long row must land in the last bin.
	entries := make([][]sparse.Entry, 2)
	for j := 0; j < 5000; j++ {
		entries[0] = append(entries[0], sparse.Entry{Col: j, Val: 1})
	}
	entries[1] = []sparse.Entry{{Col: 0, Val: 1}}
	a, _ := sparse.NewCSRFromRows(2, 5000, entries)
	b := Coarse(a, 1, 10)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(b.Bins[9]) != 1 || b.Bins[9][0].Start != 0 {
		t.Errorf("long row not in overflow bin: %v", b.Bins)
	}
}

// A U near math.MaxInt must still yield one virtual row covering the whole
// matrix: (rows+u-1)/u overflows there and used to leave no groups at all.
func TestCoarseHugeU(t *testing.T) {
	a := matgen.Poisson2D(10)
	for _, u := range []int{math.MaxInt, math.MaxInt - 1, math.MaxInt / 2} {
		b := Coarse(a, u, 100)
		if err := b.Validate(); err != nil {
			t.Fatalf("U=%d: %v", u, err)
		}
		if b.TotalRows() != a.Rows {
			t.Fatalf("U=%d: binned %d rows of %d", u, b.TotalRows(), a.Rows)
		}
		if wl := Workloads(a, u); len(wl) != 1 || wl[0] != int64(a.NNZ()) {
			t.Fatalf("U=%d: Workloads = %v, want [%d]", u, wl, a.NNZ())
		}
	}
}

func TestCoarsePartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 15; trial++ {
		rows := 1 + rng.Intn(500)
		a := matgen.RandomUniform(rows, 64, 0, 12, rng.Int63())
		for _, u := range []int{1, 3, 10, 64, 1000} {
			b := Coarse(a, u, DefaultMaxBins)
			if err := b.Validate(); err != nil {
				t.Fatalf("trial %d U=%d: %v", trial, u, err)
			}
			if b.TotalRows() != rows {
				t.Fatalf("trial %d U=%d: binned %d rows of %d", trial, u, b.TotalRows(), rows)
			}
		}
	}
}

// Bin membership must respect the workload contract: a virtual row in bin b
// (except the overflow bin) has workload in [b*U, (b+1)*U).
func TestCoarseBinContract(t *testing.T) {
	a := matgen.PowerLaw(2000, 6, 1.8, 400, 33)
	u := 10
	b := Coarse(a, u, DefaultMaxBins)
	for binID := 0; binID < len(b.Bins)-1; binID++ {
		for _, g := range b.Bins[binID] {
			wl := a.RowPtr[int(g.Start)+int(g.Count)] - a.RowPtr[g.Start]
			if wl < int64(binID*u) || wl >= int64((binID+1)*u) {
				t.Fatalf("bin %d group %v workload %d outside [%d,%d)", binID, g, wl, binID*u, (binID+1)*u)
			}
		}
	}
}

func TestFine(t *testing.T) {
	a := sparse.Figure1()
	b := Fine(a, DefaultMaxBins)
	if b.Scheme != "fine" || b.U != 1 {
		t.Errorf("fine scheme = %q U=%d", b.Scheme, b.U)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	// Row lengths 2,2,1,3: bins 2 has two rows, 1 and 3 one each.
	if b.NumRows(2) != 2 || b.NumRows(1) != 1 || b.NumRows(3) != 1 {
		t.Errorf("fine bins wrong: %v", b.Bins[:5])
	}
	for i := range b.Bins {
		for _, g := range b.Bins[i] {
			if g.Count != 1 {
				t.Fatal("fine group spans more than one row")
			}
		}
	}
}

func TestSingle(t *testing.T) {
	a := matgen.Banded(100, 3, 1)
	b := Single(a)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(b.NonEmpty()) != 1 || b.NumRows(0) != 100 {
		t.Errorf("single-bin layout wrong")
	}
	empty := Single(&sparse.CSR{Rows: 0, Cols: 0, RowPtr: []int64{0}})
	if err := empty.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(empty.Bins[0]) != 0 {
		t.Error("empty matrix should produce empty single bin")
	}
}

func TestHybrid(t *testing.T) {
	// Mix: 20 short rows (1 nnz), one long row (500 nnz), 20 short rows.
	entries := make([][]sparse.Entry, 41)
	for i := 0; i < 41; i++ {
		if i == 20 {
			for j := 0; j < 500; j++ {
				entries[i] = append(entries[i], sparse.Entry{Col: j, Val: 1})
			}
			continue
		}
		entries[i] = []sparse.Entry{{Col: i % 600, Val: 1}}
	}
	a, _ := sparse.NewCSRFromRows(41, 600, entries)
	b := Hybrid(a, 10, 100, DefaultMaxBins)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	// The long row must be alone in its group.
	found := false
	for binID := range b.Bins {
		for _, g := range b.Bins[binID] {
			if g.Start == 20 {
				if g.Count != 1 {
					t.Errorf("long row grouped with %d neighbors", g.Count-1)
				}
				found = true
			} else if g.Start <= 20 && g.Start+g.Count > 20 {
				t.Error("long row absorbed into a short group")
			}
		}
	}
	if !found {
		t.Error("long row missing")
	}
}

func TestNonEmptyAndMeasure(t *testing.T) {
	a := matgen.Mixed(100, 100, 50, []int{1, 30}, 5)
	b := Coarse(a, 10, DefaultMaxBins)
	ne := b.NonEmpty()
	if len(ne) < 2 {
		t.Fatalf("mixed matrix should occupy >=2 bins, got %v", ne)
	}
	o := Measure(b)
	if o.Bins != len(ne) {
		t.Errorf("Measure bins = %d, want %d", o.Bins, len(ne))
	}
	if o.GroupsBuilt != 10 { // 100 rows / U=10
		t.Errorf("groups = %d, want 10", o.GroupsBuilt)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	a := matgen.Banded(20, 3, 1)
	b := Coarse(a, 5, DefaultMaxBins)
	b.Bins[0] = append(b.Bins[0], Group{Start: 0, Count: 1}) // duplicate row 0
	if err := b.Validate(); err == nil {
		t.Error("duplicate row not caught")
	}
	b2 := Coarse(a, 5, DefaultMaxBins)
	b2.Bins[2] = b2.Bins[2][:0]
	// Depending on where rows were, clearing a bin may orphan rows.
	if b2.TotalRows() == 20 {
		t.Skip("bin 2 was empty for this shape")
	}
	if err := b2.Validate(); err == nil {
		t.Error("missing rows not caught")
	}
}

func TestMaxBinsDefaulting(t *testing.T) {
	a := matgen.Banded(50, 3, 2)
	b := Coarse(a, 10, 0)
	if len(b.Bins) != DefaultMaxBins {
		t.Errorf("bins = %d, want default %d", len(b.Bins), DefaultMaxBins)
	}
}
