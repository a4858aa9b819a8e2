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
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
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

// pieceSize is the size of the pieces a coordinate file's entry lines are
// cut into, each parsed on its own while the rest of the stream is read.
// It is the scanner's initial buffer: a larger one buys no speed on a
// 1 MB upload and costs the daemon resident memory (DESIGN.md "The upload
// path").
const pieceSize = 64 << 10

// ReadWithLimits parses a Matrix Market stream, rejecting files whose
// declared dimensions or entry counts exceed lim before allocating for
// them. Malformed input errors match errdefs.ErrInvalidMatrix.
func ReadWithLimits(r io.Reader, lim Limits) (*sparse.CSR, error) {
	return readWithLimits(r, lim, pieceSize)
}

// readWithLimits is ReadWithLimits cutting entry lines into pieces of the
// given size.
func readWithLimits(r io.Reader, lim Limits, piece int) (*sparse.CSR, error) {
	sp := &splitter{piece: piece}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, max(pieceSize, piece)), 1<<22)
	sc.Split(sp.split)

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
		if l := entryLine(sc.Bytes()); l != nil {
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
	return readCoordinate(sc, sp, h, sizeLine, lim)
}

// splitter cuts the scanner's input into lines, as bufio.ScanLines does,
// until pieces is set, and from then on into pieces: the first piece bytes
// up to their last newline (or, when they hold none, up to the first one
// after), so the partial line after it starts the next piece. At the end of
// input the rest is cut the same way, and what remains is the last piece.
type splitter struct {
	piece  int
	pieces bool
	last   bool // the token just returned is the input's last
}

func (s *splitter) split(data []byte, atEOF bool) (int, []byte, error) {
	if !s.pieces {
		return bufio.ScanLines(data, atEOF)
	}
	if len(data) >= s.piece {
		if i := bytes.LastIndexByte(data[:s.piece], '\n'); i >= 0 {
			return i + 1, data[:i+1], nil
		}
		if i := bytes.IndexByte(data[s.piece:], '\n'); i >= 0 {
			return s.piece + i + 1, data[:s.piece+i+1], nil
		}
	}
	if !atEOF || len(data) == 0 {
		return 0, nil, nil
	}
	s.last = true
	return len(data), data, nil
}

// scanErr classifies scanner failures: an over-long line is malformed
// input, anything else is a real I/O error.
func scanErr(err error) error {
	if err == bufio.ErrTooLong {
		return badf("line exceeds maximum length")
	}
	return err
}

// entryLine returns line with surrounding whitespace trimmed, or nil for a
// blank or comment line. The bytes alias line.
func entryLine(line []byte) []byte {
	l := bytes.TrimSpace(line)
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
func readCoordinate(sc *bufio.Scanner, sp *splitter, h Header, sizeLine []byte, lim Limits) (*sparse.CSR, error) {
	var toks [3][]byte
	f := fields(toks[:0], sizeLine)
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
	sp.pieces = true
	return readEntries(coordinate{rows: rows, cols: cols, nnz: nnz, pattern: h.Field == "pattern", symmetry: h.Symmetry}, sc, sp)
}

// coordinate is a coordinate file's declared shape and symmetry: what
// parsing any piece of its entry lines needs.
type coordinate struct {
	rows, cols, nnz int
	pattern         bool
	symmetry        string
}

// parser is the state one goroutine parses pieces with: the triplet storage
// every piece it parses appends to, its copy of the piece, and its token
// scratch.
type parser struct {
	c   sparse.COO
	buf []byte
	f   [][]byte
}

// result is what parsing a piece left: its triplets, at [lo, hi) of parser
// w's storage, and the number of entry lines it read before its first bad
// one, and that line's error.
type result struct {
	w, lo, hi, good int
	err             error
	done            bool
}

// pieces is what the goroutines parsing one file's entry lines share. Each
// takes the next piece from the scanner under mu and parses it outside.
type pieces struct {
	cd coordinate
	sc *bufio.Scanner
	sp *splitter
	ps []parser // one per goroutine that may run

	mu      sync.Mutex
	started int        // goroutines started, the caller's included
	rs      []result   // by piece, in stream order
	rs0     [16]result // rs's first backing array, allocated with s
	t       tally
	done    bool // nothing is left to read, or t decided an error
	wg      sync.WaitGroup
}

// readEntries parses the entry lines sc yields in pieces, on up to
// GOMAXPROCS goroutines, and builds the CSR. The pieces are accounted in
// stream order, so the error returned is the one the line-by-line reader
// met first, and assembled in stream order, so the matrix has its bits.
func readEntries(cd coordinate, sc *bufio.Scanner, sp *splitter) (*sparse.CSR, error) {
	procs := runtime.GOMAXPROCS(0)
	s := &pieces{cd: cd, sc: sc, sp: sp, ps: make([]parser, procs), started: 1, t: tally{nnz: cd.nnz}}
	s.rs = s.rs0[:0]
	// The parsers share the sequential reader's preallocation, and grow
	// only with the triplets they store.
	n := min(cd.nnz, maxPrealloc)
	ij, val := make([]int32, 2*n), make([]float64, n)
	for k := range s.ps {
		lo, hi := k*n/procs, (k+1)*n/procs
		s.ps[k].c = sparse.COO{RowIdx: ij[lo:lo:hi], ColIdx: ij[n+lo : n+lo : n+hi], Val: val[lo:lo:hi]}
	}
	s.run(0)
	s.wg.Wait()

	if s.t.advance(s.rs) {
		return nil, s.t.err
	}
	if err := sc.Err(); err != nil {
		return nil, scanErr(err)
	}
	if s.t.seen != cd.nnz {
		return nil, badf("truncated input: got %d entries, header promised %d", s.t.seen, cd.nnz)
	}
	var views [16]sparse.COO
	parts := slices.Grow(views[:0], len(s.rs))
	for _, r := range s.rs {
		c := &s.ps[r.w].c
		parts = append(parts, sparse.COO{RowIdx: c.RowIdx[r.lo:r.hi], ColIdx: c.ColIdx[r.lo:r.hi], Val: c.Val[r.lo:r.hi]})
	}
	return sparse.PartsToCSR(cd.rows, cd.cols, parts)
}

// run parses pieces with parser w until none is left. Reading a piece that
// is not the input's last starts another goroutine while fewer than
// GOMAXPROCS run, so a file that is one piece is parsed on the caller's
// goroutine, in the scanner's buffer; once another goroutine runs, each
// parses its own copy of the piece it read.
func (s *pieces) run(w int) {
	p := &s.ps[w]
	s.mu.Lock()
	for !s.done && s.sc.Scan() {
		tok := s.sc.Bytes()
		if !s.sp.last && s.started < len(s.ps) {
			s.wg.Add(1)
			go s.work(s.started)
			s.started++
		}
		if s.started > 1 {
			if cap(p.buf) < len(tok) {
				p.buf = make([]byte, 0, max(s.sp.piece, len(tok)))
			}
			p.buf = append(p.buf[:0], tok...)
			tok = p.buf
		}
		seq := len(s.rs)
		s.rs = append(s.rs, result{})
		s.mu.Unlock()

		lo := len(p.c.Val)
		good, err := s.cd.parse(p, tok)

		s.mu.Lock()
		s.rs[seq] = result{w: w, lo: lo, hi: len(p.c.Val), good: good, err: err, done: true}
		s.done = s.t.advance(s.rs)
	}
	s.done = true
	s.mu.Unlock()
}

// work is run on a goroutine of its own.
func (s *pieces) work(w int) {
	defer s.wg.Done()
	s.run(w)
}

// tally accounts parsed pieces in stream order against the declared entry
// count.
type tally struct {
	nnz  int
	seen int   // entry lines in the pieces accounted
	next int   // the first piece not accounted
	err  error // the error the pieces accounted decide
}

// advance accounts the pieces of rs from t.next up to the first not yet
// parsed and reports whether they decide an error: the line-by-line reader
// refused the line after the nnz-th entry line as one too many before
// reading it, and otherwise stopped at the first bad line.
func (t *tally) advance(rs []result) bool {
	for ; t.err == nil && t.next < len(rs) && rs[t.next].done; t.next++ {
		r := &rs[t.next]
		switch {
		case r.err != nil && t.seen+r.good >= t.nnz, r.err == nil && t.seen+r.good > t.nnz:
			t.err = badf("more than %d entries", t.nnz)
		case r.err != nil:
			t.err = r.err
		}
		t.seen += r.good
	}
	return t.err != nil
}

// parse appends the triplets of piece's entry lines to p's storage, reading
// each line as the line-by-line reader did but for the count against the
// header, which needs the pieces before this one. It returns how many entry
// lines it read before the first bad one, and that line's error.
func (cd *coordinate) parse(p *parser, piece []byte) (good int, err error) {
	wantFields := 3
	if cd.pattern {
		wantFields = 2
	}
	for len(piece) > 0 {
		line := piece
		if k := bytes.IndexByte(piece, '\n'); k >= 0 {
			line, piece = piece[:k], piece[k+1:]
		} else {
			piece = nil
		}
		l := entryLine(line)
		if l == nil {
			continue
		}
		i, j, v, ok := entry(l, cd.pattern)
		if !ok {
			p.f = fields(p.f, l)
			if len(p.f) < wantFields {
				return good, badf("bad entry line %q", l)
			}
			var err error
			i, err = strconv.Atoi(string(p.f[0]))
			if err != nil {
				return good, badf("bad row index in %q: %v", l, err)
			}
			j, err = strconv.Atoi(string(p.f[1]))
			if err != nil {
				return good, badf("bad col index in %q: %v", l, err)
			}
			v = 1.0
			if !cd.pattern {
				v, err = strconv.ParseFloat(string(p.f[2]), 64)
				if err != nil {
					return good, badf("bad value in %q: %v", l, err)
				}
			}
		}
		// Matrix Market is 1-based.
		i--
		j--
		if i < 0 || i >= cd.rows || j < 0 || j >= cd.cols {
			return good, badf("index (%d,%d) out of range %dx%d", i+1, j+1, cd.rows, cd.cols)
		}
		p.add(i, j, v)
		switch cd.symmetry {
		case "symmetric":
			if i != j {
				p.add(j, i, v)
			}
		case "skew-symmetric":
			if i != j {
				p.add(j, i, -v)
			}
		}
		good++
	}
	return good, nil
}

// add appends a triplet to p's storage, doubling it when full.
func (p *parser) add(i, j int, v float64) {
	if n := len(p.c.Val); n == cap(p.c.Val) {
		p.reserve(max(2*n, 1<<10))
	}
	p.c.Add(i, j, v)
}

// reserve moves p's triplets to storage for n, the row and column indices
// in one allocation.
func (p *parser) reserve(n int) {
	ij := make([]int32, 2*n)
	p.c.RowIdx = append(ij[:0:n], p.c.RowIdx...)
	p.c.ColIdx = append(ij[n:n:2*n], p.c.ColIdx...)
	p.c.Val = append(make([]float64, 0, n), p.c.Val...)
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
		l := entryLine(sc.Bytes())
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
