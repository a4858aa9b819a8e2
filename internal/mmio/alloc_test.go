package mmio

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"spmvtune/internal/matgen"
)

// uploadBody is a Matrix Market file as spmvd receives it: rows of a
// PowerLaw matrix with the cold_upload workload's shape, written by Write.
// 6000 rows give that workload's ~34 k nonzeros, 60000 rows ~340 k.
func uploadBody(t testing.TB, rows int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, matgen.PowerLaw(rows, 6, 2.1, 800, 1)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadAllocs is the gate on the reader's allocations (scripts/check.sh):
// a fixed handful per file — scanner, COO and CSR storage, a bounded number
// of COO growths past the preallocation cap — never a number per line or
// per token. Allocation counts are deterministic, so a loaded runner cannot
// flake this.
func TestReadAllocs(t *testing.T) {
	for _, tc := range []struct {
		rows, max int
	}{
		{6000, 32},
		{60000, 64},
	} {
		data := uploadBody(t, tc.rows)
		r := bytes.NewReader(data)
		var nnz int
		allocs := testing.AllocsPerRun(3, func() {
			r.Reset(data)
			a, err := Read(r)
			if err != nil {
				t.Fatal(err)
			}
			nnz = a.NNZ()
		})
		t.Logf("%d rows, %d nnz, %d bytes: %.0f allocations", tc.rows, nnz, len(data), allocs)
		if allocs > float64(tc.max) {
			t.Errorf("%d rows (%d nnz): %.0f allocations per read, want <= %d", tc.rows, nnz, allocs, tc.max)
		}
	}
}

// TestReadHeaderCannotClaimMemory: a size line declaring 2^30 entries —
// within DefaultLimits — followed by a single entry is refused as truncated
// having allocated < 2 MiB: the preallocation is capped, the rest grows
// only with entries actually read.
func TestReadHeaderCannotClaimMemory(t *testing.T) {
	data := []byte("%%MatrixMarket matrix coordinate real general\n1000 1000 1073741824\n1 1 1\n")
	size := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for try := 0; try < 5; try++ {
		runtime.ReadMemStats(&before)
		_, err := Read(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "truncated input") {
			t.Fatalf("error %v, want truncated input", err)
		}
		size = min(size, after.TotalAlloc-before.TotalAlloc)
	}
	if size >= 2<<20 {
		t.Errorf("refused after allocating %d bytes, want < 2 MiB", size)
	}
}

// TestReadBlankLinesCannotClaimMemory: a body of blank or comment lines
// stores nothing, so it may make the reader allocate no more than entry
// lines of the same bytes would store. The densest, "1 2 1\n" in a
// symmetric file, store two 16-byte triplets per 6 bytes, and storage grows
// to at most twice what is reserved; past that only the size-line
// preallocation and the scanner's buffers count. Under a header declaring
// few entries the reservations stop at what it declares.
func TestReadBlankLinesCannotClaimMemory(t *testing.T) {
	const bodyBytes = 4 << 20
	for _, tc := range []struct {
		symmetry, line string
		nnz            int
		max            uint64
	}{
		{"symmetric", "\n", 1 << 30, 2*2*16*bodyBytes/6 + 2<<20},
		{"symmetric", "%\n", 1 << 30, 2*2*16*bodyBytes/6 + 2<<20},
		{"general", "\n", 1 << 30, 2*16*bodyBytes/6 + 2<<20},
		{"symmetric", "\n", 1000, 2 << 20},
	} {
		header := fmt.Sprintf("%%%%MatrixMarket matrix coordinate real %s\n1000 1000 %d\n", tc.symmetry, tc.nnz)
		data := append([]byte(header), bytes.Repeat([]byte(tc.line), bodyBytes/len(tc.line))...)
		size := uint64(math.MaxUint64)
		var before, after runtime.MemStats
		for try := 0; try < 3; try++ {
			runtime.ReadMemStats(&before)
			_, err := Read(bytes.NewReader(data))
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), "truncated input") {
				t.Fatalf("error %v, want truncated input", err)
			}
			size = min(size, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("%s, %q lines, %d declared: %d bytes for a %d-byte body", tc.symmetry, tc.line, tc.nnz, size, len(data))
		if size > tc.max {
			t.Errorf("%s, %q lines, %d declared: refused after allocating %d bytes, want <= %d", tc.symmetry, tc.line, tc.nnz, size, tc.max)
		}
	}
}

// BenchmarkReadMatrixMarket reads the cold_upload workload's matrix with
// the reference reader and with Read, in two spellings: "g17" is the body
// Write emits (and spmvd receives), every value %.17g, so every conversion
// is an Eisel–Lemire one; "f3" writes the same entries with three decimals,
// which take the exact-float branch. "g17-60000" is the g17 body of the
// 60 000-row matrix, about 85 pieces. Read spreads the pieces over
// GOMAXPROCS goroutines, so compare it across -cpu values.
func BenchmarkReadMatrixMarket(b *testing.B) {
	a := matgen.PowerLaw(6000, 6, 2.1, 800, 1)
	var f3 bytes.Buffer
	fmt.Fprintf(&f3, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n", a.Rows, a.Cols, a.NNZ())
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.Row(i)
		for k := range cols {
			fmt.Fprintf(&f3, "%d %d %.3f\n", i+1, cols[k]+1, vals[k])
		}
	}
	for _, body := range []struct {
		name string
		data []byte
	}{
		{"g17", uploadBody(b, 6000)},
		{"f3", f3.Bytes()},
		{"g17-60000", uploadBody(b, 60000)},
	} {
		for _, bc := range []struct {
			name string
			read func(*bytes.Reader) error
		}{
			{"reference", func(r *bytes.Reader) error { _, err := referenceRead(r, DefaultLimits()); return err }},
			{"reader", func(r *bytes.Reader) error { _, err := Read(r); return err }},
		} {
			b.Run(body.name+"/"+bc.name, func(b *testing.B) {
				data := body.data
				b.SetBytes(int64(len(data)))
				b.ReportAllocs()
				r := bytes.NewReader(data)
				for i := 0; i < b.N; i++ {
					r.Reset(data)
					if err := bc.read(r); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
