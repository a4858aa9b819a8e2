package mmio

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
)

// coordinateBody writes entries as a coordinate real file of the given
// symmetry, every value spelled %.17g as Write spells it.
func coordinateBody(symmetry string, rows, cols int, entries [][3]float64) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%%%%MatrixMarket matrix coordinate real %s\n%d %d %d\n", symmetry, rows, cols, len(entries))
	for _, e := range entries {
		fmt.Fprintf(&b, "%d %d %.17g\n", int(e[0]), int(e[1]), e[2])
	}
	return b.Bytes()
}

// pieceBodies are the files the piece tests read: the cold_upload upload at
// its size and ten times it, symmetric and skew-symmetric files (every
// off-diagonal entry mirrored, negated in the skew one), and a file of
// shuffled duplicate (i,j) runs whose sums depend on the order their terms
// are added in, so a piece assembled out of stream order changes bits.
func pieceBodies(t testing.TB) []struct {
	name string
	data []byte
} {
	rng := rand.New(rand.NewSource(42))
	var lower, strict, dups [][3]float64
	for k := 0; k < 30000; k++ {
		i, j := 1+rng.Intn(3000), 1+rng.Intn(3000)
		if i < j {
			i, j = j, i
		}
		lower = append(lower, [3]float64{float64(i), float64(j), rng.NormFloat64()})
		if i != j {
			strict = append(strict, [3]float64{float64(i), float64(j), rng.NormFloat64()})
		}
	}
	terms := []float64{1e16, 1, -1e16, 0.1, -0.3, 3e-17, 2.5}
	for k := 0; k < 30000; k++ {
		dups = append(dups, [3]float64{float64(1 + rng.Intn(40)), float64(1 + rng.Intn(40)), terms[rng.Intn(len(terms))]})
	}
	return []struct {
		name string
		data []byte
	}{
		{"upload-6000", uploadBody(t, 6000)},
		{"upload-60000", uploadBody(t, 60000)},
		{"symmetric", coordinateBody("symmetric", 3000, 3000, lower)},
		{"skew-symmetric", coordinateBody("skew-symmetric", 3000, 3000, strict)},
		{"duplicates", coordinateBody("general", 40, 40, dups)},
	}
}

// withProcs runs f with GOMAXPROCS set to procs.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// TestReadPiecesMatchReference: under GOMAXPROCS 1, 2 and 4, each body
// read in default pieces and in 4 KiB ones is the reference's matrix bit
// for bit.
func TestReadPiecesMatchReference(t *testing.T) {
	for _, body := range pieceBodies(t) {
		want, err := referenceRead(bytes.NewReader(body.data), DefaultLimits())
		if err != nil {
			t.Fatalf("%s: reference: %v", body.name, err)
		}
		for _, procs := range []int{1, 2, 4} {
			for _, piece := range []int{pieceSize, 4 << 10} {
				withProcs(procs, func() {
					got, err := readWithLimits(bytes.NewReader(body.data), DefaultLimits(), piece)
					if msg := differs(got, err, want, nil); msg != "" {
						t.Errorf("%s, GOMAXPROCS %d, %d B pieces: %s", body.name, procs, piece, msg)
					}
				})
			}
		}
	}
}

// failingReader yields data in reads of at most 4093 bytes up to byte n,
// then fails.
type failingReader struct {
	data []byte
	n    int
}

var errConnReset = errors.New("connection reset")

func (r *failingReader) Read(p []byte) (int, error) {
	if r.n == 0 {
		return 0, errConnReset
	}
	k := copy(p[:min(len(p), 4093, r.n)], r.data)
	r.data, r.n = r.data[k:], r.n-k
	return k, nil
}

// TestReadPiecesReaderFails: a body whose reader fails after n bytes gives
// the reference's error at every piece size and GOMAXPROCS — a bad line
// before the failure outranks it, the failure outranks the truncation it
// causes — including failures in the header and mid-line.
func TestReadPiecesReaderFails(t *testing.T) {
	good := uploadBody(t, 6000)
	bad := bytes.Replace(good, []byte("\n3 "), []byte("\n3 x"), 1) // a bad column index near the top
	for _, data := range [][]byte{good, bad} {
		for _, n := range []int{0, 10, 60, 1000, 70000, len(data) / 3, len(data) / 2, len(data) - 1} {
			want, wantErr := referenceRead(&failingReader{data, n}, DefaultLimits())
			for _, procs := range []int{1, 2, 4} {
				for _, piece := range []int{7, 64, pieceSize} {
					withProcs(procs, func() {
						got, err := readWithLimits(&failingReader{data, n}, DefaultLimits(), piece)
						if msg := differs(got, err, want, wantErr); msg != "" {
							t.Errorf("fail after %d B, GOMAXPROCS %d, %d B pieces: %s", n, procs, piece, msg)
						}
						if wantErr == nil {
							t.Errorf("fail after %d B: the reference read succeeded", n)
						}
					})
				}
			}
		}
	}
}

// TestReadPiecesPastDeclaredReservation: blank and comment lines reserve
// storage they do not fill, and no piece reserves past what the header
// still declares, so the pieces after them get less than their entries
// need and append past their ranges. The matrix must still be the
// reference's, bit for bit, at every piece size and GOMAXPROCS.
func TestReadPiecesPastDeclaredReservation(t *testing.T) {
	var entries [][3]float64
	for i := 2; i <= 40; i++ {
		entries = append(entries, [3]float64{float64(i), float64(i - 1), float64(i) / 3}, [3]float64{float64(i), float64(i), -float64(i)})
	}
	for _, symmetry := range []string{"general", "symmetric", "skew-symmetric"} {
		body := coordinateBody(symmetry, 40, 40, entries)
		k := bytes.IndexByte(body[len("%%"):], '\n') + len("%%") + 1
		k += bytes.IndexByte(body[k:], '\n') + 1 // past the size line
		data := append(append(slices.Clip(body[:k]), bytes.Repeat([]byte("\n% comment\n\n"), 50)...), body[k:]...)
		want, wantErr := referenceRead(bytes.NewReader(data), DefaultLimits())
		if wantErr != nil {
			t.Fatal(wantErr)
		}
		for _, procs := range []int{1, 2, 4} {
			for _, piece := range []int{7, 64, pieceSize} {
				withProcs(procs, func() {
					got, err := readWithLimits(bytes.NewReader(data), DefaultLimits(), piece)
					if msg := differs(got, err, want, nil); msg != "" {
						t.Errorf("%s, GOMAXPROCS %d, %d B pieces: %s", symmetry, procs, piece, msg)
					}
				})
			}
		}
	}
}

// TestReadAllocsAtGOMAXPROCS is TestReadAllocs at the GOMAXPROCS the test
// runs with (testing.AllocsPerRun pins it to 1), under the same bounds:
// the goroutines a read starts add their start and at most a buffer for
// their copy of a piece, never an allocation per piece or per line.
func TestReadAllocsAtGOMAXPROCS(t *testing.T) {
	for _, tc := range []struct {
		rows, max int
	}{
		{6000, 32},
		{60000, 64},
	} {
		allocs, _ := readCost(t, uploadBody(t, tc.rows))
		t.Logf("GOMAXPROCS %d, %d rows: %d allocations", runtime.GOMAXPROCS(0), tc.rows, allocs)
		if allocs > uint64(tc.max) {
			t.Errorf("GOMAXPROCS %d, %d rows: %d allocations per read, want <= %d", runtime.GOMAXPROCS(0), tc.rows, allocs, tc.max)
		}
	}
}

// TestReadBytesAtGOMAXPROCS: the bytes a read allocates at the GOMAXPROCS
// the test runs with are within 5 % of those at GOMAXPROCS 1. Each piece
// reserves its triplets from shared storage when it is taken, so a
// goroutine's share never runs out and is copied, and the goroutines'
// piece copies come from the reader's free list (pieceBufs), which keeps
// them across collections and under the race detector alike; the gate is
// on what a read itself allocates, so no collection runs while it measures
// but the one readCost starts with.
func TestReadBytesAtGOMAXPROCS(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, rows := range []int{6000, 60000} {
		data := uploadBody(t, rows)
		procs := runtime.GOMAXPROCS(1)
		_, one := readCost(t, data)
		runtime.GOMAXPROCS(procs)
		_, got := readCost(t, data)
		t.Logf("%d rows: %d B per read at GOMAXPROCS %d, %d at 1", rows, got, procs, one)
		if float64(got) > 1.05*float64(one) {
			t.Errorf("%d rows: %d B per read at GOMAXPROCS %d, want <= 1.05 x %d (GOMAXPROCS 1)", rows, got, procs, one)
		}
	}
}

// readCost is the mean allocations and bytes of a warm Read of data at the
// current GOMAXPROCS, after a collection of what earlier reads left.
func readCost(t *testing.T, data []byte) (allocs, bytesPerRead uint64) {
	t.Helper()
	runtime.GC()
	r := bytes.NewReader(data)
	read := func() {
		r.Reset(data)
		if _, err := Read(r); err != nil {
			t.Fatal(err)
		}
	}
	read()
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < runs; k++ {
		read()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / runs, (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestReadBytesInPlace is the gate on assembly in place (scripts/check.sh):
// a warm read of the cold_upload body, a general file in row order within
// the preallocation, allocates no more than its triplet storage (16 B per
// entry: a row index, a column index and a value), the matrix's row
// pointers and 128 KiB for the scanner's buffer and the rest — the matrix
// keeps the storage the pieces parsed into, with no copy beside it. The
// goroutines' piece copies come from the reader's free list; the least of
// three measures counts, so a measure that now and then takes one more
// 64 KiB allocation does not decide it. It runs under -race too.
func TestReadBytesInPlace(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	data := uploadBody(t, 6000)
	a, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	got := uint64(math.MaxUint64)
	for try := 0; try < 3; try++ {
		_, b := readCost(t, data)
		got = min(got, b)
	}
	bound := uint64(16*a.NNZ() + 8*(a.Rows+1) + 128<<10)
	t.Logf("GOMAXPROCS %d, %d rows, %d nnz: %d B per read, bound %d", runtime.GOMAXPROCS(0), a.Rows, a.NNZ(), got, bound)
	if got > bound {
		t.Errorf("GOMAXPROCS %d: a warm read of %d nnz allocates %d B, want <= %d", runtime.GOMAXPROCS(0), a.NNZ(), got, bound)
	}
}
