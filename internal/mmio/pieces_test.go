package mmio

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
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

// TestReadAllocsAtGOMAXPROCS is TestReadAllocs at the GOMAXPROCS the test
// runs with (testing.AllocsPerRun pins it to 1), under the same bounds:
// the goroutines a read starts add their start, their copy of a piece and a
// doubling of their storage past the shared preallocation, never an
// allocation per piece or per line.
func TestReadAllocsAtGOMAXPROCS(t *testing.T) {
	for _, tc := range []struct {
		rows, max int
	}{
		{6000, 32},
		{60000, 64},
	} {
		data := uploadBody(t, tc.rows)
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
		allocs := (after.Mallocs - before.Mallocs) / runs
		t.Logf("GOMAXPROCS %d, %d rows: %d allocations", runtime.GOMAXPROCS(0), tc.rows, allocs)
		if allocs > uint64(tc.max) {
			t.Errorf("GOMAXPROCS %d, %d rows: %d allocations per read, want <= %d", runtime.GOMAXPROCS(0), tc.rows, allocs, tc.max)
		}
	}
}
