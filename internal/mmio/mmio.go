// Package mmio reads and writes Matrix Market exchange files, the
// interchange format of the SuiteSparse/UF collection from which the paper
// draws its training matrices.
//
// Supported: the "matrix" object in "coordinate" format with real, integer
// or pattern fields and general, symmetric or skew-symmetric symmetry, plus
// the dense "array" format with real/integer fields. This covers every file
// the SpMV experiments consume.
package mmio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"unicode/utf8"

	"spmvtune/internal/atof"
	"spmvtune/internal/errdefs"
	"spmvtune/internal/sparse"
)

// badf builds a malformed-input error; every parse failure in this package
// matches errdefs.ErrInvalidMatrix (= sparse.ErrInvalidMatrix) via
// errors.Is, so callers can distinguish "the file is bad" from I/O errors.
func badf(format string, args ...any) error {
	return errdefs.Invalidf("mmio: "+format, args...)
}

// Limits bounds the resources a Matrix Market file may claim before any
// large allocation happens. A header is untrusted input: a five-line file
// can declare billions of rows, and CSR conversion allocates O(rows) — the
// limits reject such files up front instead of aborting on OOM.
type Limits struct {
	MaxRows int // maximum declared rows
	MaxCols int // maximum declared columns
	MaxNNZ  int // maximum declared entries (for array format: rows*cols)
}

// DefaultLimits is generous enough for every SuiteSparse-scale matrix the
// experiments consume while keeping a malicious header from exhausting
// memory: 2^27 rows/cols (~134M) and 2^30 entries.
func DefaultLimits() Limits {
	return Limits{MaxRows: 1 << 27, MaxCols: 1 << 27, MaxNNZ: 1 << 30}
}

func (l Limits) check(rows, cols, nnz int) error {
	if l.MaxRows > 0 && rows > l.MaxRows {
		return badf("declared rows %d exceed limit %d", rows, l.MaxRows)
	}
	if l.MaxCols > 0 && cols > l.MaxCols {
		return badf("declared cols %d exceed limit %d", cols, l.MaxCols)
	}
	if l.MaxNNZ > 0 && nnz > l.MaxNNZ {
		return badf("declared entries %d exceed limit %d", nnz, l.MaxNNZ)
	}
	return nil
}

// Header describes the banner line of a Matrix Market file.
type Header struct {
	Object   string // "matrix"
	Format   string // "coordinate" or "array"
	Field    string // "real", "integer", "pattern"
	Symmetry string // "general", "symmetric", "skew-symmetric"
}

func (h Header) validate() error {
	if h.Object != "matrix" {
		return badf("unsupported object %q", h.Object)
	}
	switch h.Format {
	case "coordinate", "array":
	default:
		return badf("unsupported format %q", h.Format)
	}
	switch h.Field {
	case "real", "integer", "pattern", "double":
	default:
		return badf("unsupported field %q", h.Field)
	}
	if h.Field == "pattern" && h.Format == "array" {
		return badf("pattern field is invalid for array format")
	}
	switch h.Symmetry {
	case "general", "symmetric", "skew-symmetric":
	default:
		return badf("unsupported symmetry %q", h.Symmetry)
	}
	return nil
}

// Read parses a Matrix Market stream into a CSR matrix under
// DefaultLimits. Symmetric and skew-symmetric storage is expanded to full
// (general) form.
func Read(r io.Reader) (*sparse.CSR, error) {
	return ReadWithLimits(r, DefaultLimits())
}

// ReadWithLimits parses a Matrix Market stream, rejecting files whose
// declared dimensions or entry counts exceed lim before allocating for
// them. Malformed input errors match errdefs.ErrInvalidMatrix.
func ReadWithLimits(r io.Reader, lim Limits) (*sparse.CSR, error) {
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

	// Skip comments and blank lines to the size line. It aliases the
	// scanner's buffer, so it is parsed before the next Scan.
	var sizeLine []byte
	for sc.Scan() {
		if l := entryLine(sc); l != nil {
			sizeLine = l
			break
		}
	}
	if sizeLine == nil {
		if err := sc.Err(); err != nil {
			return nil, scanErr(err)
		}
		return nil, badf("missing size line")
	}

	if h.Format == "array" {
		return readArray(sc, h, sizeLine, lim)
	}
	return readCoordinate(sc, h, sizeLine, lim)
}

// scanErr classifies scanner failures: an over-long line is malformed
// input, anything else is a real I/O error.
func scanErr(err error) error {
	if err == bufio.ErrTooLong {
		return badf("line exceeds maximum length")
	}
	return err
}

// entryLine returns the scanner's current line with surrounding whitespace
// trimmed, or nil for a blank or comment line. The bytes alias the
// scanner's buffer and are valid until the next Scan.
func entryLine(sc *bufio.Scanner) []byte {
	l := bytes.TrimSpace(sc.Bytes())
	if len(l) == 0 || l[0] == '%' {
		return nil
	}
	return l
}

// Byte classes for fields: the ASCII bytes unicode.IsSpace accepts (the
// separators strings.Fields splits ASCII text on), the bytes that may start
// a multi-byte rune, and everything else, which is token text.
const (
	tokenByte = iota
	spaceByte
	wideByte
)

var byteClass = func() (c [256]uint8) {
	for _, b := range []byte{'\t', '\n', '\v', '\f', '\r', ' '} {
		c[b] = spaceByte
	}
	for b := utf8.RuneSelf; b < 256; b++ {
		c[b] = wideByte
	}
	return c
}()

// fields splits line around runs of whitespace exactly as strings.Fields
// does, reusing dst's storage; the tokens alias line. A line with any byte
// >= 0x80 goes through bytes.Fields, the []byte form of strings.Fields, so
// NBSP, NEL and every other unicode.IsSpace rune still separate tokens.
func fields(dst [][]byte, line []byte) [][]byte {
	dst = dst[:0]
	for i := 0; i < len(line); {
		for i < len(line) && byteClass[line[i]] == spaceByte {
			i++
		}
		start := i
		for i < len(line) && byteClass[line[i]] == tokenByte {
			i++
		}
		if i < len(line) && byteClass[line[i]] == wideByte {
			return append(dst[:0], bytes.Fields(line)...)
		}
		if i > start {
			dst = append(dst, line[start:i])
		}
	}
	return dst
}

// maxPrealloc caps the entries a size line can make the reader allocate
// ahead of the data: beyond it the slices grow only with entries actually
// read, so a header alone cannot claim memory.
const maxPrealloc = 1 << 16

// maxIndexDigits bounds the indices entry reads itself: 18 digits cannot
// overflow a uint64, and the value must still fit an int.
const maxIndexDigits = 18

// index reads the unsigned decimal index at l[k:] — the value strconv.Atoi
// gives the same digits — and returns the index after it.
func index(l []byte, k int) (v, next int, ok bool) {
	var u uint64
	j := k
	for ; j < len(l) && l[j]-'0' <= 9; j++ {
		u = u*10 + uint64(l[j]-'0')
	}
	return int(u), j, j > k && j-k <= maxIndexDigits && u <= math.MaxInt
}

// blanks returns the index after the run of spaces and tabs at l[k:], and
// whether there was one.
func blanks(l []byte, k int) (next int, ok bool) {
	j := k
	for j < len(l) && (l[j] == ' ' || l[j] == '\t') {
		j++
	}
	return j, j > k
}

// entry parses a coordinate entry line in one walk: two unsigned indices of
// at most maxIndexDigits digits and, unless pattern, a value in strconv's
// decimal grammar that atof converts, separated by spaces or tabs. Any other
// line — a sign or a long index, a value strconv must convert (inf, nan,
// hex, underscores, one Convert declines), another separator, an extra
// token — reports false. The values are those strconv gives the same
// tokens, so the caller's fields + strconv path decides every other line.
func entry(l []byte, pattern bool) (i, j int, v float64, ok bool) {
	i, k, ok := index(l, 0)
	if !ok {
		return 0, 0, 0, false
	}
	if k, ok = blanks(l, k); !ok {
		return 0, 0, 0, false
	}
	if j, k, ok = index(l, k); !ok {
		return 0, 0, 0, false
	}
	if pattern {
		return i, j, 1, k == len(l)
	}
	if k, ok = blanks(l, k); !ok {
		return 0, 0, 0, false
	}
	v, ok = atof.Parse(l[k:])
	return i, j, v, ok
}

// readCoordinate reads a coordinate file's size line and entries. The size
// line, every entry line entry declines and (in readArray) every value
// atof declines go through fields and strconv as string(tok), a conversion
// that does not allocate because strconv does not retain its argument (a
// NumError clones it): accepted values and error texts are exactly those of
// strconv on the token's string.
func readCoordinate(sc *bufio.Scanner, h Header, sizeLine []byte, lim Limits) (*sparse.CSR, error) {
	f := fields(nil, sizeLine)
	if len(f) != 3 {
		return nil, badf("bad coordinate size line %q", sizeLine)
	}
	rows, err1 := strconv.Atoi(string(f[0]))
	cols, err2 := strconv.Atoi(string(f[1]))
	nnz, err3 := strconv.Atoi(string(f[2]))
	if err1 != nil || err2 != nil || err3 != nil || rows < 0 || cols < 0 || nnz < 0 {
		return nil, badf("bad coordinate size line %q", sizeLine)
	}
	if err := lim.check(rows, cols, nnz); err != nil {
		return nil, err
	}
	n := min(nnz, maxPrealloc)
	c := &sparse.COO{Rows: rows, Cols: cols, RowIdx: make([]int32, 0, n), ColIdx: make([]int32, 0, n), Val: make([]float64, 0, n)}
	pattern := h.Field == "pattern"
	wantFields := 3
	if pattern {
		wantFields = 2
	}
	seen := 0
	for sc.Scan() {
		l := entryLine(sc)
		if l == nil {
			continue
		}
		if seen >= nnz {
			return nil, badf("more than %d entries", nnz)
		}
		i, j, v, ok := entry(l, pattern)
		if !ok {
			f = fields(f, l)
			if len(f) < wantFields {
				return nil, badf("bad entry line %q", l)
			}
			var err error
			i, err = strconv.Atoi(string(f[0]))
			if err != nil {
				return nil, badf("bad row index in %q: %v", l, err)
			}
			j, err = strconv.Atoi(string(f[1]))
			if err != nil {
				return nil, badf("bad col index in %q: %v", l, err)
			}
			v = 1.0
			if !pattern {
				v, err = strconv.ParseFloat(string(f[2]), 64)
				if err != nil {
					return nil, badf("bad value in %q: %v", l, err)
				}
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

func readArray(sc *bufio.Scanner, h Header, sizeLine []byte, lim Limits) (*sparse.CSR, error) {
	f := fields(nil, sizeLine)
	if len(f) != 2 {
		return nil, badf("bad array size line %q", sizeLine)
	}
	rows, err1 := strconv.Atoi(string(f[0]))
	cols, err2 := strconv.Atoi(string(f[1]))
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
	vals := make([]float64, 0, min(rows*cols, maxPrealloc))
	for sc.Scan() {
		l := entryLine(sc)
		if l == nil {
			continue
		}
		f = fields(f, l)
		for _, tok := range f {
			v, ok := atof.Parse(tok)
			if !ok {
				var err error
				if v, err = strconv.ParseFloat(string(tok), 64); err != nil {
					return nil, badf("bad array value %q: %v", tok, err)
				}
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

// Write emits the matrix in coordinate/real/general form with 1-based
// indices, sorted row-major, preceded by the given comment lines.
func Write(w io.Writer, a *sparse.CSR, comments ...string) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "%%MatrixMarket matrix coordinate real general"); err != nil {
		return err
	}
	for _, c := range comments {
		if _, err := fmt.Fprintf(bw, "%% %s\n", c); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", a.Rows, a.Cols, a.NNZ()); err != nil {
		return err
	}
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.Row(i)
		for k := range cols {
			if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", i+1, cols[k]+1, vals[k]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadFile reads a Matrix Market file from disk.
func ReadFile(path string) (*sparse.CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// WriteFile writes the matrix to disk in Matrix Market format.
func WriteFile(path string, a *sparse.CSR, comments ...string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, a, comments...); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
