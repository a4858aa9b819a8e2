package mmio

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
)

// walkEdges are entry lines at every edge walk must accept or decline, each
// with whether walk reads it itself. A declined line goes the general way
// (entryLine, entry, fields and strconv), which decides it as the reference
// reader does.
var walkEdges = []struct {
	line string
	walk bool
}{
	// The form every writer emits, and its blanks.
	{"1 1 0.5", true},
	{"1\t1\t0.5", true},
	{"1  \t 1 \t\t 0.5", true},
	{"1 1 0.5\r", false},
	{" 1 1 0.5", false},
	{"1 1 0.5 ", false},
	{"1 1 0.5\t", false},
	{"1 1 0.5\v", false},
	// Signs and points.
	{"1 1 +0.5", true},
	{"1 1 -0.5", true},
	{"1 1 -0", true},
	{"1 1 +0", true},
	{"1 1 .5", true},
	{"1 1 -.5", true},
	{"1 1 5.", true},
	{"1 1 -5.", true},
	{"1 1 -", false},
	{"1 1 +.", false},
	{"1 1 .", false},
	{"1 1 --1", false},
	{"1 1 +-1", false},
	{"1 1 1e5", false},
	{"1 1 1E-5", false},
	{"1 1 5.e1", false},
	{"1 1 0x1p-2", false},
	{"1 1 inf", false},
	{"1 1 1_0", false},
	// Significant digits: 19 are taken, a 20th declines, leading zeros are
	// free.
	{"1 1 1234567890123456789", true},
	{"1 1 0.1234567890123456789", true},
	{"1 1 -123456789.0123456789", true},
	{"1 1 0.00000001234567890123456789", true},
	{"1 1 12345678901234567890", false},
	{"1 1 0.12345678901234567891", false},
	{"1 1 1234567890.1234567890", false},
	{"1 1 2.2857191176995801", true},
	{"1 1 -0.99274319075143669", true},
	{"1 1 4.9406564584124654e-324", false},
	// Indices: 18 digits are read, 19 go to strconv; signs, zero.
	{"123456789012345678 1 1", true},
	{"1234567890123456789 1 1", false},
	{"000000000000000001 1 1", true},
	{"0000000000000000001 1 1", false},
	{"0 1 1", true},
	{"1 0 1", true},
	{"+1 1 1", false},
	{"1 -1 1", false},
	{"1 1", false},
	{"1 1 1 1", false},
	// A value directly followed by a comment or other text.
	{"1 1 5%", false},
	{"1 1 0.5% x", false},
	{"1 1 0.5x", false},
	{"1 1 0.5 ", false},
	// Not entry lines.
	{"% 1 1 1", false},
	{"", false},
}

// walkEdgeFiles writes each walkEdges line into coordinate files: between
// two lines walk reads, and as the file's last line with and without its
// newline, so every edge is also met at a piece's end.
func walkEdgeFiles() []string {
	const coord = "%%MatrixMarket matrix coordinate real general\n"
	var files []string
	for _, e := range walkEdges {
		files = append(files,
			coord+"3 3 3\n2 2 0.25\n"+e.line+"\n3 3 -7.5\n",
			coord+"3 3 2\n2 2 0.25\n"+e.line+"\n",
			coord+"3 3 2\n2 2 0.25\n"+e.line,
		)
	}
	return files
}

// TestWalkEdges: walk reads exactly the lines it should, each terminated
// line giving the indices and value entry gives the trimmed line, and
// declines every line without its newline.
func TestWalkEdges(t *testing.T) {
	for _, e := range walkEdges {
		i, j, v, n := walk([]byte(e.line + "\n"))
		if (n > 0) != e.walk {
			t.Errorf("walk(%q) read %d bytes, want it to read the line: %v", e.line, n, e.walk)
			continue
		}
		if n == 0 {
			continue
		}
		if n != len(e.line)+1 {
			t.Errorf("walk(%q) read %d bytes, want %d", e.line, n, len(e.line)+1)
		}
		wi, wj, wv, ok := entry([]byte(e.line), false)
		if !ok || i != wi || j != wj || math.Float64bits(v) != math.Float64bits(wv) {
			t.Errorf("walk(%q) = %d %d %v, entry = %d %d %v (ok %v)", e.line, i, j, v, wi, wj, wv, ok)
		}
		if _, _, _, n := walk([]byte(e.line)); n != 0 {
			t.Errorf("walk(%q) without its newline read %d bytes", e.line, n)
		}
	}
}

// TestWalkEdgesMatchReference runs every walkEdges file through
// ReadWithLimits cut into pieces of 7 B, 64 B and the default size: the
// same matrix bits as the reference reader, or the same error text.
func TestWalkEdgesMatchReference(t *testing.T) {
	for _, file := range walkEdgeFiles() {
		data := []byte(file)
		want, wantErr := referenceRead(bytes.NewReader(data), DefaultLimits())
		for _, piece := range []int{7, 64, pieceSize} {
			got, gotErr := readWithLimits(bytes.NewReader(data), DefaultLimits(), piece)
			if msg := differs(got, gotErr, want, wantErr); msg != "" {
				t.Errorf("%d B pieces: %s\ninput: %s", piece, msg, strconv.Quote(strings.TrimPrefix(file, "%%MatrixMarket matrix coordinate real general\n")))
			}
		}
	}
}
