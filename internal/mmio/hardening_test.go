package mmio

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"spmvtune/internal/errdefs"
)

// TestReadMalformed drives the parser with the malformed-input classes the
// hardening targets: every one must be rejected with an error matching
// errdefs.ErrInvalidMatrix — typed, and never a panic or an OOM.
func TestReadMalformed(t *testing.T) {
	cases := []struct {
		name  string
		input string
	}{
		{"empty", ""},
		{"bad banner", "hello world\n"},
		{"short banner", "%%MatrixMarket matrix coordinate\n"},
		{"bad object", "%%MatrixMarket tensor coordinate real general\n1 1 1\n1 1 1\n"},
		{"bad format", "%%MatrixMarket matrix sparse real general\n1 1 1\n1 1 1\n"},
		{"bad field", "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1\n"},
		{"bad symmetry", "%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 1\n"},
		{"pattern array", "%%MatrixMarket matrix array pattern general\n1 1\n1\n"},
		{"missing size line", "%%MatrixMarket matrix coordinate real general\n% only comments\n"},
		{"short size line", "%%MatrixMarket matrix coordinate real general\n2 2\n"},
		{"junk size line", "%%MatrixMarket matrix coordinate real general\nx y z\n"},
		{"negative dims", "%%MatrixMarket matrix coordinate real general\n-1 2 0\n"},
		{"truncated entries", "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1\n"},
		{"surplus entries", "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1\n1 1 2\n"},
		{"row out of range", "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1\n"},
		{"col out of range", "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 3 1\n"},
		{"zero index", "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1\n"},
		{"junk row index", "%%MatrixMarket matrix coordinate real general\n2 2 1\nx 1 1\n"},
		{"junk value", "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 zzz\n"},
		{"short entry line", "%%MatrixMarket matrix coordinate real general\n2 2 1\n1\n"},
		{"array short size line", "%%MatrixMarket matrix array real general\n2\n"},
		{"array junk value", "%%MatrixMarket matrix array real general\n1 1\nnope\n"},
		{"array truncated", "%%MatrixMarket matrix array real general\n2 2\n1\n2\n"},
		{"array padded", "%%MatrixMarket matrix array real general\n1 1\n1\n2\n"},
		{"array nonsquare symmetric", "%%MatrixMarket matrix array real symmetric\n2 3\n1\n2\n3\n4\n5\n"},
		{"huge declared rows", "%%MatrixMarket matrix coordinate real general\n999999999999 1 0\n"},
		{"huge declared nnz", "%%MatrixMarket matrix coordinate real general\n10 10 99999999999\n"},
		{"array dims overflow", "%%MatrixMarket matrix array real general\n3037000500 3037000500\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, err := Read(strings.NewReader(tc.input))
			if err == nil {
				t.Fatalf("accepted (as %dx%d/%d)", a.Rows, a.Cols, a.NNZ())
			}
			if !errors.Is(err, errdefs.ErrInvalidMatrix) {
				t.Errorf("error %v is not typed as ErrInvalidMatrix", err)
			}
		})
	}
}

func TestReadWithLimits(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate real general\n100 100 1\n1 1 1\n"
	if _, err := ReadWithLimits(strings.NewReader(in), Limits{MaxRows: 10}); !errors.Is(err, errdefs.ErrInvalidMatrix) {
		t.Errorf("rows over limit: %v", err)
	}
	if _, err := ReadWithLimits(strings.NewReader(in), Limits{MaxCols: 10}); !errors.Is(err, errdefs.ErrInvalidMatrix) {
		t.Errorf("cols over limit: %v", err)
	}
	if _, err := ReadWithLimits(strings.NewReader(in), Limits{MaxNNZ: 0, MaxRows: 1000, MaxCols: 1000}); err != nil {
		t.Errorf("zero limit must mean unlimited: %v", err)
	}
	if a, err := ReadWithLimits(strings.NewReader(in), DefaultLimits()); err != nil || a.NNZ() != 1 {
		t.Errorf("default limits rejected a well-formed file: %v", err)
	}
}

func TestReadOverlongLine(t *testing.T) {
	// A single line longer than the scanner's 4 MiB cap must be classified
	// as malformed input, not surfaced as a raw bufio error.
	var sb strings.Builder
	sb.WriteString("%%MatrixMarket matrix coordinate real general\n1 1 1\n")
	sb.WriteString(strings.Repeat("1", 1<<23))
	_, err := Read(strings.NewReader(sb.String()))
	if !errors.Is(err, errdefs.ErrInvalidMatrix) {
		t.Errorf("over-long line: error %v, want ErrInvalidMatrix", err)
	}
}

// tightLimits are the fuzzers' resource limits: small enough that any
// header they admit materializes in a few MiB.
var tightLimits = Limits{MaxRows: 1 << 16, MaxCols: 1 << 16, MaxNNZ: 1 << 18}

// FuzzReadMTX extends FuzzRead with the hardening contract: under tight
// resource limits, arbitrary input must either parse into a valid matrix
// or fail with an error typed as ErrInvalidMatrix — never panic, never
// allocate beyond the limits, never return an untyped parse error.
func FuzzReadMTX(f *testing.F) {
	seeds := []string{
		// Well-formed.
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.5\n",
		"%%MatrixMarket matrix array real symmetric\n2 2\n1\n2\n3\n",
		// Malformed corpus: truncation, range, limits, junk.
		"%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n9 9 1\n",
		"%%MatrixMarket matrix coordinate real general\n-1 -1 -1\n",
		"%%MatrixMarket matrix coordinate real general\n999999999 999999999 0\n",
		"%%MatrixMarket matrix array real general\n3037000500 3037000500\n",
		"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1e999\n",
		"%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1\n",
		"%%MatrixMarket matrix coordinate real general",
		"%%MatrixMarket\n",
		"",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip()
		}
		a, err := ReadWithLimits(bytes.NewReader(data), tightLimits)
		if err != nil {
			// Reading from memory cannot fail with I/O errors, so every
			// rejection must carry the malformed-input type.
			if !errors.Is(err, errdefs.ErrInvalidMatrix) {
				t.Fatalf("untyped rejection %v\ninput: %q", err, truncate(data))
			}
			return
		}
		if vErr := a.Validate(); vErr != nil {
			t.Fatalf("accepted invalid matrix: %v\ninput: %q", vErr, truncate(data))
		}
		if a.Rows > 1<<16 || a.Cols > 1<<16 {
			t.Fatalf("limits not enforced: %dx%d", a.Rows, a.Cols)
		}
	})
}
