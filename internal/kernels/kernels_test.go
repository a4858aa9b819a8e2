package kernels

import (
	"math/rand"
	"testing"

	"spmvtune/internal/binning"
	"spmvtune/internal/hsa"
	"spmvtune/internal/matgen"
	"spmvtune/internal/sparse"
)

func runKernel(t *testing.T, k Kernel, a *sparse.CSR, groups []binning.Group) ([]float64, hsa.Stats) {
	t.Helper()
	v := make([]float64, a.Cols)
	rng := rand.New(rand.NewSource(99))
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	u := make([]float64, a.Rows)
	run := hsa.NewRun(hsa.DefaultConfig())
	in := NewInput(run, a, v, u)
	k.Run(run, in, groups)
	return u, run.Stats()
}

func allRows(a *sparse.CSR) []binning.Group {
	return binning.Single(a).Bins[0]
}

func reference(a *sparse.CSR, seed int64) []float64 {
	v := make([]float64, a.Cols)
	rng := rand.New(rand.NewSource(seed))
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	u := make([]float64, a.Rows)
	a.MulVec(v, u)
	return u
}

// Every kernel in the pool must compute the exact same SpMV as Algorithm 1
// on a variety of matrix shapes.
func TestAllKernelsMatchReference(t *testing.T) {
	mats := map[string]*sparse.CSR{
		"figure1":   sparse.Figure1(),
		"banded":    matgen.Banded(500, 7, 1),
		"road":      matgen.RoadNetwork(700, 2),
		"powerlaw":  matgen.PowerLaw(400, 4, 1.8, 200, 3),
		"blockfem":  matgen.BlockFEM(150, 120, 30, 4),
		"bipartite": matgen.Bipartite(300, 50, 4, 5),
		"singlennz": matgen.SingleNNZRows(513, 100, 6),
		"mixed":     matgen.Mixed(333, 333, 10, []int{1, 40, 3}, 7),
		"onerow":    matgen.BlockFEM(1, 300, 0, 8),
	}
	for name, a := range mats {
		want := reference(a, 99)
		for _, info := range Pool() {
			got, _ := runKernel(t, info.Kernel, a, allRows(a))
			if i := sparse.FirstVecDiff(want, got, 1e-9); i >= 0 {
				t.Errorf("%s/%s: first diff at row %d: got %v want %v",
					name, info.Name, i, got[i], want[i])
			}
		}
	}
}

// Kernels must also be correct when handed a strict subset of rows from a
// real binning, leaving other rows untouched.
func TestKernelsOnBinnedSubsets(t *testing.T) {
	a := matgen.Mixed(500, 500, 25, []int{2, 60}, 11)
	want := reference(a, 99)
	b := binning.Coarse(a, 10, binning.DefaultMaxBins)
	for _, info := range Pool() {
		v := make([]float64, a.Cols)
		rng := rand.New(rand.NewSource(99))
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		u := make([]float64, a.Rows)
		for i := range u {
			u[i] = -12345 // sentinel
		}
		for _, binID := range b.NonEmpty() {
			run := hsa.NewRun(hsa.DefaultConfig())
			in := NewInput(run, a, v, u)
			info.Kernel.Run(run, in, b.Bins[binID])
		}
		if i := sparse.FirstVecDiff(want, u, 1e-9); i >= 0 {
			t.Errorf("%s: row %d wrong after per-bin execution (got %v, want %v)",
				info.Name, i, u[i], want[i])
		}
	}
}

func TestKernelsEmptyGroups(t *testing.T) {
	a := sparse.Figure1()
	for _, info := range Pool() {
		u, st := runKernel(t, info.Kernel, a, nil)
		for i, x := range u {
			if x != 0 {
				t.Errorf("%s: wrote u[%d]=%v with no rows", info.Name, i, x)
			}
		}
		if st.WorkGroups != 0 {
			t.Errorf("%s: launched %d WGs for empty input", info.Name, st.WorkGroups)
		}
	}
}

func TestKernelsZeroLengthRows(t *testing.T) {
	// Matrix with alternating empty rows.
	entries := make([][]sparse.Entry, 100)
	for i := range entries {
		if i%2 == 0 {
			entries[i] = []sparse.Entry{{Col: i % 50, Val: 2}}
		}
	}
	a, _ := sparse.NewCSRFromRows(100, 50, entries)
	want := reference(a, 99)
	for _, info := range Pool() {
		got, _ := runKernel(t, info.Kernel, a, allRows(a))
		if i := sparse.FirstVecDiff(want, got, 1e-12); i >= 0 {
			t.Errorf("%s: row %d wrong with empty rows", info.Name, i)
		}
	}
}

func TestPoolRegistry(t *testing.T) {
	p := Pool()
	if len(p) != 9 {
		t.Fatalf("pool has %d kernels, paper uses 9", len(p))
	}
	names := map[string]bool{}
	for i, info := range p {
		if info.ID != i {
			t.Errorf("pool[%d].ID = %d", i, info.ID)
		}
		if names[info.Name] {
			t.Errorf("duplicate kernel name %s", info.Name)
		}
		names[info.Name] = true
		if info.Kernel.Name() != info.Name {
			t.Errorf("info name %q != kernel name %q", info.Name, info.Kernel.Name())
		}
		byID, ok := ByID(info.ID)
		if !ok || byID.Name != info.Name {
			t.Errorf("ByID(%d) mismatch", info.ID)
		}
		byName, ok := ByName(info.Name)
		if !ok || byName.ID != info.ID {
			t.Errorf("ByName(%s) mismatch", info.Name)
		}
	}
	if !names["serial"] || !names["vector"] || !names["subvector16"] {
		t.Errorf("expected kernel names missing: %v", names)
	}
	if _, ok := ByID(99); ok {
		t.Error("ByID(99) should fail")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName(nope) should fail")
	}
}

// The central performance trade-off of the paper: serial is best on very
// short rows, vector on very long rows, with subvectors in between.
func TestKernelCostShape(t *testing.T) {
	serial, _ := ByName("serial")
	vector, _ := ByName("vector")
	sub16, _ := ByName("subvector16")

	// Matrix of many 2-nnz rows.
	short := matgen.RoadNetwork(8192, 21)
	_, sShort := runKernel(t, serial.Kernel, short, allRows(short))
	_, vShort := runKernel(t, vector.Kernel, short, allRows(short))
	if sShort.Cycles >= vShort.Cycles {
		t.Errorf("short rows: serial (%.0f) should beat vector (%.0f)", sShort.Cycles, vShort.Cycles)
	}

	// Matrix of few 2000-nnz rows.
	long := matgen.BlockFEM(256, 2000, 100, 22)
	_, sLong := runKernel(t, serial.Kernel, long, allRows(long))
	_, vLong := runKernel(t, vector.Kernel, long, allRows(long))
	if vLong.Cycles >= sLong.Cycles {
		t.Errorf("long rows: vector (%.0f) should beat serial (%.0f)", vLong.Cycles, sLong.Cycles)
	}

	// Medium rows (~60 nnz): subvector16 should beat both extremes.
	med := matgen.BlockFEM(2048, 60, 10, 23)
	_, sMed := runKernel(t, serial.Kernel, med, allRows(med))
	_, vMed := runKernel(t, vector.Kernel, med, allRows(med))
	_, subMed := runKernel(t, sub16.Kernel, med, allRows(med))
	if subMed.Cycles >= sMed.Cycles || subMed.Cycles >= vMed.Cycles {
		t.Errorf("medium rows: subvector16 (%.0f) should beat serial (%.0f) and vector (%.0f)",
			subMed.Cycles, sMed.Cycles, vMed.Cycles)
	}
}

// Subvector width should trade off monotonically at the extremes: on 1-nnz
// rows, narrower is better; on very long rows, wider is better.
func TestSubvectorWidthTradeoff(t *testing.T) {
	sub2, _ := ByName("subvector2")
	sub128, _ := ByName("subvector128")

	tiny := matgen.SingleNNZRows(4096, 4096, 31)
	_, n2 := runKernel(t, sub2.Kernel, tiny, allRows(tiny))
	_, n128 := runKernel(t, sub128.Kernel, tiny, allRows(tiny))
	if n2.Cycles >= n128.Cycles {
		t.Errorf("1-nnz rows: subvector2 (%.0f) should beat subvector128 (%.0f)", n2.Cycles, n128.Cycles)
	}

	long := matgen.BlockFEM(128, 4000, 100, 32)
	_, l2 := runKernel(t, sub2.Kernel, long, allRows(long))
	_, l128 := runKernel(t, sub128.Kernel, long, allRows(long))
	if l128.Cycles >= l2.Cycles {
		t.Errorf("4000-nnz rows: subvector128 (%.0f) should beat subvector2 (%.0f)", l128.Cycles, l2.Cycles)
	}
}

func TestKernelDeterminism(t *testing.T) {
	a := matgen.PowerLaw(512, 5, 1.9, 256, 41)
	for _, info := range Pool() {
		_, s1 := runKernel(t, info.Kernel, a, allRows(a))
		_, s2 := runKernel(t, info.Kernel, a, allRows(a))
		if s1 != s2 {
			t.Errorf("%s: non-deterministic stats", info.Name)
		}
	}
}

func TestRowIter(t *testing.T) {
	it := rowIter{groups: []binning.Group{{Start: 3, Count: 2}, {Start: 10, Count: 1}, {Start: 0, Count: 3}}}
	var got []int32
	for {
		r, ok := it.next()
		if !ok {
			break
		}
		got = append(got, r)
	}
	want := []int32{3, 4, 10, 0, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("iterated %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("iterated %v, want %v", got, want)
		}
	}
	// take respects capacity and exhaustion.
	it2 := rowIter{groups: []binning.Group{{Start: 0, Count: 5}}}
	buf := make([]int32, 0, 3)
	first := it2.take(buf)
	if len(first) != 3 || first[0] != 0 || first[2] != 2 {
		t.Errorf("take = %v", first)
	}
	second := it2.take(buf[:0:3])
	if len(second) != 2 {
		t.Errorf("second take = %v", second)
	}
}

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10}
	for n, want := range cases {
		if got := log2ceil(n); got != want {
			t.Errorf("log2ceil(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestRowsPerWG checks the per-kernel work-group packing the search's
// certified lower bound counts work-groups with.
func TestRowsPerWG(t *testing.T) {
	cfg := hsa.DefaultConfig()
	if got := (Kernel{P: KernelParams{TPR: 1}}).RowsPerWG(cfg); got != cfg.MaxWorkGroupSize {
		t.Errorf("Serial: %d rows/WG, want %d", got, cfg.MaxWorkGroupSize)
	}
	if got := (Kernel{P: KernelParams{TPR: 4}}).RowsPerWG(cfg); got != cfg.MaxWorkGroupSize/4 {
		t.Errorf("Subvector4: %d rows/WG, want %d", got, cfg.MaxWorkGroupSize/4)
	}
	if got := VectorKernel().RowsPerWG(cfg); got != 1 {
		t.Errorf("Vector: %d rows/WG, want 1", got)
	}
	// Every kernel must report a positive packing, hostile params included.
	infos := append(append([]Info{}, SynthSpace().Infos...), Info{Name: "hostile", Kernel: Kernel{P: KernelParams{TPR: 1 << 20}}})
	for _, info := range infos {
		if got := info.Kernel.RowsPerWG(cfg); got < 1 {
			t.Errorf("kernel %s: RowsPerWG = %d", info.Name, got)
		}
	}
}

// poolSpaceFingerprint is PoolSpace().Fingerprint(), which heads every
// pool-space cost-cache key: pruning the synthesized space must not move it.
const poolSpaceFingerprint = 0x10673e8de15168d8

func TestPoolSpaceFingerprintGolden(t *testing.T) {
	if got := PoolSpace().Fingerprint(); got != poolSpaceFingerprint {
		t.Fatalf("PoolSpace().Fingerprint() = %#x, want %#x", got, uint64(poolSpaceFingerprint))
	}
}
