package mmio

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"spmvtune/internal/errdefs"
	"spmvtune/internal/sparse"
)

// referenceRead is the reader before its entry loops were rewritten over
// the scanner's bytes: a string per line, a []string per line, COO slices
// grown by append. It is the differential oracle for ReadWithLimits —
// FuzzMTXDifferential holds the two to the same matrices and the same
// error texts — and BenchmarkReadMatrixMarket's baseline.
func referenceRead(r io.Reader, lim Limits) (*sparse.CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)

	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, badf("empty input")
	}
	banner := strings.Fields(strings.ToLower(sc.Text()))
	if len(banner) != 5 || banner[0] != "%%matrixmarket" {
		return nil, badf("bad banner %q", sc.Text())
	}
	h := Header{Object: banner[1], Format: banner[2], Field: banner[3], Symmetry: banner[4]}
	if err := h.validate(); err != nil {
		return nil, err
	}

	// Skip comments and blank lines to the size line.
	var sizeLine string
	for sc.Scan() {
		l := strings.TrimSpace(sc.Text())
		if l == "" || strings.HasPrefix(l, "%") {
			continue
		}
		sizeLine = l
		break
	}
	if sizeLine == "" {
		if err := sc.Err(); err != nil {
			return nil, scanErr(err)
		}
		return nil, badf("missing size line")
	}

	if h.Format == "array" {
		return referenceArray(sc, h, sizeLine, lim)
	}
	return referenceCoordinate(sc, h, sizeLine, lim)
}

func referenceCoordinate(sc *bufio.Scanner, h Header, sizeLine string, lim Limits) (*sparse.CSR, error) {
	f := strings.Fields(sizeLine)
	if len(f) != 3 {
		return nil, badf("bad coordinate size line %q", sizeLine)
	}
	rows, err1 := strconv.Atoi(f[0])
	cols, err2 := strconv.Atoi(f[1])
	nnz, err3 := strconv.Atoi(f[2])
	if err1 != nil || err2 != nil || err3 != nil || rows < 0 || cols < 0 || nnz < 0 {
		return nil, badf("bad coordinate size line %q", sizeLine)
	}
	if err := lim.check(rows, cols, nnz); err != nil {
		return nil, err
	}
	c := &sparse.COO{Rows: rows, Cols: cols}
	seen := 0
	for sc.Scan() {
		l := strings.TrimSpace(sc.Text())
		if l == "" || strings.HasPrefix(l, "%") {
			continue
		}
		if seen >= nnz {
			return nil, badf("more than %d entries", nnz)
		}
		ef := strings.Fields(l)
		wantFields := 3
		if h.Field == "pattern" {
			wantFields = 2
		}
		if len(ef) < wantFields {
			return nil, badf("bad entry line %q", l)
		}
		i, err := strconv.Atoi(ef[0])
		if err != nil {
			return nil, badf("bad row index in %q: %v", l, err)
		}
		j, err := strconv.Atoi(ef[1])
		if err != nil {
			return nil, badf("bad col index in %q: %v", l, err)
		}
		v := 1.0
		if h.Field != "pattern" {
			v, err = strconv.ParseFloat(ef[2], 64)
			if err != nil {
				return nil, badf("bad value in %q: %v", l, err)
			}
		}
		// Matrix Market is 1-based.
		i--
		j--
		if i < 0 || i >= rows || j < 0 || j >= cols {
			return nil, badf("index (%d,%d) out of range %dx%d", i+1, j+1, rows, cols)
		}
		c.Add(i, j, v)
		switch h.Symmetry {
		case "symmetric":
			if i != j {
				c.Add(j, i, v)
			}
		case "skew-symmetric":
			if i != j {
				c.Add(j, i, -v)
			}
		}
		seen++
	}
	if err := sc.Err(); err != nil {
		return nil, scanErr(err)
	}
	if seen != nnz {
		return nil, badf("truncated input: got %d entries, header promised %d", seen, nnz)
	}
	return c.ToCSR()
}

func referenceArray(sc *bufio.Scanner, h Header, sizeLine string, lim Limits) (*sparse.CSR, error) {
	f := strings.Fields(sizeLine)
	if len(f) != 2 {
		return nil, badf("bad array size line %q", sizeLine)
	}
	rows, err1 := strconv.Atoi(f[0])
	cols, err2 := strconv.Atoi(f[1])
	if err1 != nil || err2 != nil || rows < 0 || cols < 0 {
		return nil, badf("bad array size line %q", sizeLine)
	}
	// The dense element count is what the reader must materialize; check it
	// (not just the separate dimensions) before allocating, and guard the
	// rows*cols product against overflow.
	if cols != 0 && rows > (1<<62)/cols {
		return nil, badf("array dimensions %dx%d overflow", rows, cols)
	}
	if err := lim.check(rows, cols, rows*cols); err != nil {
		return nil, err
	}
	// Array format is column-major dense.
	vals := make([]float64, 0, rows*cols)
	for sc.Scan() {
		l := strings.TrimSpace(sc.Text())
		if l == "" || strings.HasPrefix(l, "%") {
			continue
		}
		for _, tok := range strings.Fields(l) {
			v, err := strconv.ParseFloat(tok, 64)
			if err != nil {
				return nil, badf("bad array value %q: %v", tok, err)
			}
			vals = append(vals, v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, scanErr(err)
	}
	want := rows * cols
	if h.Symmetry != "general" {
		want = rows * (rows + 1) / 2
		if rows != cols {
			return nil, badf("symmetric array must be square, got %dx%d", rows, cols)
		}
	}
	if len(vals) != want {
		return nil, badf("array has %d values, want %d (truncated or padded input)", len(vals), want)
	}
	c := &sparse.COO{Rows: rows, Cols: cols}
	k := 0
	for j := 0; j < cols; j++ {
		iStart := 0
		if h.Symmetry != "general" {
			iStart = j
		}
		for i := iStart; i < rows; i++ {
			v := vals[k]
			k++
			if v == 0 {
				continue
			}
			c.Add(i, j, v)
			if i != j {
				switch h.Symmetry {
				case "symmetric":
					c.Add(j, i, v)
				case "skew-symmetric":
					c.Add(j, i, -v)
				}
			}
		}
	}
	return c.ToCSR()
}

// FuzzMTXDifferential holds ReadWithLimits to referenceRead: on any input,
// under FuzzReadMTX's tight limits and under DefaultLimits, and with the
// entry lines cut into pieces of 7 B, 64 B and the default size, both
// return the same matrix bit for bit, or errors with the same text and the
// same ErrInvalidMatrix classification.
func FuzzMTXDifferential(f *testing.F) {
	const coord = "%%MatrixMarket matrix coordinate real general\n"
	seeds := []string{
		// Separators: CRLF, tabs, \v, \f; NBSP and NEL (unicode.IsSpace
		// runes) and a bare 0x85 byte (invalid UTF-8, not a space).
		"%%MatrixMarket matrix coordinate real general\r\n% crlf\r\n2 2 2\r\n1 1 1.5\r\n2 2 -3\r\n",
		coord + "2\t2\t2\n1\t1\t2.5\n\t2 2\t\t4\t\n",
		coord + "2 2 2\n1\v1\f7\n\f2 2 8\v\n",
		coord + "2\u00a02\u00852\n1\u00a01\u00852\n2\u00852\u00a03\n",
		coord + "2 2 1\n1\x851 2\n",
		coord + "2 2 1\n1 1 2\u2003\n",
		// Number spellings strconv accepts or rejects.
		coord + "3 3 3\n+1 1 -0\n007 2 0x1p-2\n3 3 1e-320\n",
		coord + "2 2 1\n1234567890123456789 1 1\n",
		coord + "2 2 1\n12345678901234567890 1 1\n",
		coord + "2 2 1\n1 1 1e999\n",
		coord + "2 2 2\n1 1 nan\n2 2 inf\n",
		coord + "2 2 2\n1 1 -Inf\n2 2 NaN\n",
		coord + "2 2 1\n1 1 1_0\n",
		coord + "2 2 1\n1_0 1 1\n",
		coord + "2 2 1\n1 1 " + strings.Repeat("1", 40) + "\n",
		// Pattern entries with three fields, extra fields, comments between
		// entries.
		"%%MatrixMarket matrix coordinate pattern general\n3 3 3\n1 1 9\n2 2\n% between\n\n3 1 x y\n",
		coord + "2 2 2\n1 1 1 extra fields\n%\n2 2 2 3 4\n",
		// Symmetric, skew-symmetric and duplicate (i,j) runs.
		"%%MatrixMarket matrix coordinate real symmetric\n3 3 4\n1 1 1\n2 1 2\n3 1 3\n3 2 4\n",
		"%%MatrixMarket matrix coordinate integer skew-symmetric\n3 3 3\n2 1 5\n3 1 -6\n3 3 7\n",
		coord + "2 3 6\n1 3 1e16\n1 3 1\n1 3 -1e16\n1 1 0.1\n1 3 1\n2 2 0.2\n",
		// Array general and array symmetric.
		"%%MatrixMarket matrix array real general\n2 3\n1 0\n2\n% c\n3 4 0\n",
		"%%MatrixMarket matrix array real symmetric\n3 3\n1\n2\n0\n4\n5\n6\n",
		"%%MatrixMarket matrix array integer skew-symmetric\n2 2\n1\n2\n3\n",
		// Surplus and truncated files.
		coord + "1 1 1\n1 1 1\n1 1 2\n",
		coord + "2 2 3\n1 1 1\n",
		"%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n5\n",
		"%%MatrixMarket matrix array real general\n2 2\n1\n",
		// Entry lines read in one walk and converted by atof, next to the
		// lines that must still go through fields and strconv: a 20-digit
		// mantissa with a nonzero tail (the mant+1 confirmation), signed and
		// zero-padded indices, tabs, bare dots, subnormals, an overflow, an
		// index out of range, a pattern line.
		coord + "3 3 3\n1 1 14932.0000001344242266\n2 2 98765432109876543210e-20\n3 3 1.00000000000000011102230246251565404236316680908203125\n",
		coord + "3 3 3\n+1 1 0.5\n007 3 -2.25\n3 +2 1\n",
		coord + "3 3 3\n1\t1\t0.1\n2 \t 2\t\t-7e-3\n3\t 3 \t1E+2\n",
		coord + "3 3 3\n1 1 1.\n2 2 .5\n3 3 -.5e1\n",
		coord + "2 2 2\n1 1 4.9406564584124654e-324\n2 2 2.2250738585072009e-308\n",
		coord + "2 2 2\n1 1 0.5\n2 2 -1e999\n",
		"%%MatrixMarket matrix array real general\n1 2\n0.5 1e999\n",
		coord + "2 2 2\n1 1 0.5\n3 1 0.25\n",
		"%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2\t2\n",
	}
	var w bytes.Buffer
	if err := Write(&w, awkwardValues()); err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, w.String())
	// Every edge of the one-walk line read (walk_test.go).
	seeds = append(seeds, walkEdgeFiles()...)
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip()
		}
		for _, lim := range []Limits{tightLimits, DefaultLimits()} {
			if lim == DefaultLimits() && claimsMuchMemory(data) {
				continue
			}
			want, wantErr := referenceRead(bytes.NewReader(data), lim)
			for _, piece := range []int{7, 64, pieceSize} {
				got, gotErr := readWithLimits(bytes.NewReader(data), lim, piece)
				if msg := differs(got, gotErr, want, wantErr); msg != "" {
					t.Fatalf("limits %+v, %d B pieces: %s\ninput: %q", lim, piece, msg, truncate(data))
				}
			}
		}
	})
}

// differs says how a read's outcome differs from the reference's: in
// whether it failed, in the error's text or classification, or in the
// matrix's bits; "" when it does not.
func differs(got *sparse.CSR, gotErr error, want *sparse.CSR, wantErr error) string {
	switch {
	case (gotErr == nil) != (wantErr == nil):
		return fmt.Sprintf("reader err %v, reference err %v", gotErr, wantErr)
	case wantErr != nil && gotErr.Error() != wantErr.Error():
		return fmt.Sprintf("error texts differ\nreader:    %s\nreference: %s", gotErr, wantErr)
	case wantErr != nil && errors.Is(gotErr, errdefs.ErrInvalidMatrix) != errors.Is(wantErr, errdefs.ErrInvalidMatrix):
		return fmt.Sprintf("%v classified differently from the reference", gotErr)
	case wantErr == nil && !sameCSR(got, want):
		return "matrices differ"
	}
	return ""
}

// awkwardValues is a 3x4 matrix whose values Write spells with 17
// significant digits in every shape a conversion has an edge for: exact and
// inexact decimals, negative zero, subnormals, the largest float64, a power
// of ten past the exact range, and 2260941260385393.5, which Eisel–Lemire
// cannot decide and strconv converts on its slow path.
func awkwardValues() *sparse.CSR {
	a, err := sparse.NewCSRFromRows(3, 4, [][]sparse.Entry{
		{{Col: 0, Val: 0.1}, {Col: 1, Val: -1.0 / 3}, {Col: 3, Val: math.Copysign(0, -1)}},
		{{Col: 1, Val: 1e-310}, {Col: 2, Val: math.SmallestNonzeroFloat64}, {Col: 3, Val: math.MaxFloat64}},
		{{Col: 0, Val: 6.02214076e23}, {Col: 2, Val: 1e23}, {Col: 3, Val: 2260941260385393.5}},
	})
	if err != nil {
		panic(err)
	}
	return a
}

// sameCSR compares two matrices bit for bit.
func sameCSR(a, b *sparse.CSR) bool {
	return a.Rows == b.Rows && a.Cols == b.Cols &&
		slices.Equal(a.RowPtr, b.RowPtr) && slices.Equal(a.ColIdx, b.ColIdx) &&
		slices.EqualFunc(a.Val, b.Val, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// claimsMuchMemory reports whether data's size line declares more than 2^20
// rows or columns, or an array format with more than 2^20 cells — headers
// DefaultLimits admits, whose CSR row pointers or dense buffer would take
// tens of MiB per reader. Those parses are still compared under
// tightLimits, which rejects them before any allocation.
func claimsMuchMemory(data []byte) bool {
	lines := strings.Split(string(data), "\n")
	for _, line := range lines[1:] {
		l := strings.TrimSpace(line)
		if l == "" || strings.HasPrefix(l, "%") {
			continue
		}
		dims := []int{}
		for _, tok := range strings.Fields(l) {
			n, err := strconv.Atoi(tok)
			if err != nil {
				return false // the size line is rejected before any allocation
			}
			if n > 1<<20 {
				return true
			}
			dims = append(dims, n)
		}
		array := strings.Contains(strings.ToLower(lines[0]), "array")
		return array && len(dims) >= 2 && dims[0]*dims[1] > 1<<20
	}
	return false
}
