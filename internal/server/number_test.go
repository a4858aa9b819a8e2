package server

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// The number path as it was before num: a grammar-only scan, then
// strconv.ParseFloat over the token, and a vector scanned twice — a counting
// grammar pass, then the ParseFloat pass. Kept verbatim as the oracle of
// FuzzScanNumber and TestNumMatchesReference.

// digits returns the index after the run of decimal digits at d[i:].
func digits(d []byte, i int) int {
	for i < len(d) && '0' <= d[i] && d[i] <= '9' {
		i++
	}
	return i
}

// referenceNumber scans one literal of the JSON number grammar,
// -?(0|[1-9]\d*)(\.\d+)?([eE][+-]?\d+)?, and reports whether it has neither
// fraction nor exponent. tok is nil when the bytes at the cursor are not a
// number.
func (s *scanner) referenceNumber() (tok []byte, integer bool) {
	d, i := s.data, s.i
	if i < len(d) && d[i] == '-' {
		i++
	}
	j := digits(d, i)
	if j == i || j > i+1 && d[i] == '0' {
		return nil, false
	}
	i, integer = j, true
	if i < len(d) && d[i] == '.' {
		if j = digits(d, i+1); j == i+1 {
			return nil, false
		}
		i, integer = j, false
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		if i++; i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if j = digits(d, i); j == i {
			return nil, false
		}
		i, integer = j, false
	}
	tok = d[s.i:i]
	s.i = i
	return tok, integer
}

func (s *scanner) referenceFloat() (float64, bool) {
	tok, _ := s.referenceNumber()
	if tok == nil {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	return f, err == nil
}

// referenceVector scans an array of numbers in two passes: a grammar-only
// pass to the closing bracket that counts the elements, then one exact
// allocation and the ParseFloat pass.
func (s *scanner) referenceVector() ([]float64, bool) {
	if !s.eat('[') {
		return nil, false
	}
	s.ws()
	start, n := s.i, 0
	for more := !s.eat(']'); more; n++ {
		if tok, _ := s.referenceNumber(); tok == nil {
			return nil, false
		}
		var ok bool
		if more, ok = s.next(']'); !ok {
			return nil, false
		}
	}
	end := s.i
	s.i = start
	v := make([]float64, n)
	for k := range v {
		var ok bool
		if v[k], ok = s.referenceFloat(); !ok {
			return nil, false
		}
		s.next(']') // the separator the first pass checked
	}
	s.i = end
	return v, true
}

// checkNumAgainstReference fails t unless num and the reference path agree on
// data: same verdict, same cursor, same bits and the same integer flag for a
// number at the start of data; the same vector (bit for bit, nil only when
// both fail) and cursor for an array at the start of data.
func checkNumAgainstReference(t *testing.T, data []byte) {
	t.Helper()
	s, ref := scanner{data: data}, scanner{data: data}
	f, integer, ok := s.num()
	want, wantOK := ref.referenceFloat()
	if ok != wantOK || s.i != ref.i || ok && math.Float64bits(f) != math.Float64bits(want) {
		t.Fatalf("num(%q) = %v, %v, cursor %d; reference %v, %v, cursor %d", data, f, ok, s.i, want, wantOK, ref.i)
	}
	ref = scanner{data: data}
	if tok, wantInteger := ref.referenceNumber(); tok != nil && integer != wantInteger {
		t.Fatalf("num(%q): integer %v, reference %v", data, integer, wantInteger)
	}

	s, ref = scanner{data: data}, scanner{data: data}
	v, ok := s.vector()
	wantV, wantOK := ref.referenceVector()
	if ok != wantOK || (v == nil) != (wantV == nil) || ok && s.i != ref.i ||
		!sameValue(reflect.ValueOf(v), reflect.ValueOf(wantV)) {
		t.Fatalf("vector(%q) = %v, %v, cursor %d; reference %v, %v, cursor %d", data, v, ok, s.i, wantV, wantOK, ref.i)
	}
}

// FuzzScanNumber holds the one-walk number path to the two-walk one it
// replaced: for any input of at most 4 KiB, num and referenceFloat agree on
// acceptance, cursor and Float64bits, and vector and referenceVector return
// identical slices or both fail — on the input as given and wrapped in
// brackets as a one-element array.
func FuzzScanNumber(f *testing.F) {
	for _, seed := range []string{
		"0", "-0", "-0.000", "00", "-", "1.", ".5", "+1", "1e", "1E+0", "1e-07",
		"1e22", "1e23", "1e-22", "1e-23", "9007199254740991", "9007199254740993",
		"123456789012345", "1234567890123456", "12345678901234567", "1234567890123456789",
		"12345678901234567890", "0.1234567890123456789", "-98765.43210987654321e-3",
		"0.000000000000000000000000001", "0.00123", "1e999", "-1e-400",
		"4.9406564584124654e-324", "2.2250738585072011e-308", "1.7976931348623157e308",
		"1e00000000000000000022", "0.0000000001e10", "9007199254740992e-22", "-0.517",
		"[1,-0.5,2e3]", "[ 1 , 2 ]", "[]", "[1,]", "[,]", "[1 2]", "[-0.000,1e999]",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4<<10 {
			return
		}
		checkNumAgainstReference(t, data)
		checkNumAgainstReference(t, []byte("["+string(data)+"]"))
	})
}

// TestNumMatchesReference is FuzzScanNumber's check on 10^5 seeded tokens of
// the shapes that matter — mantissas of 1 to 25 digits with leading and
// trailing zeros, with and without a fraction and an exponent near the fast
// path's edges — so plain `go test` exercises both sides of every branch.
func TestNumMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	digitRun := func(n int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteByte(byte('0' + rng.Intn(10)))
		}
		return b.String()
	}
	for c := 0; c < 100000; c++ {
		var tok string
		if rng.Intn(2) == 0 {
			tok = "-"
		}
		switch rng.Intn(4) {
		case 0:
			tok += "0"
		default:
			tok += strconv.Itoa(1+rng.Intn(9)) + digitRun(rng.Intn(20))
		}
		if rng.Intn(3) > 0 {
			tok += "." + strings.Repeat("0", rng.Intn(4)*rng.Intn(4)) + digitRun(1+rng.Intn(18))
		}
		if rng.Intn(3) == 0 {
			tok += []string{"e", "E", "e+", "e-", "E-"}[rng.Intn(5)] + strconv.Itoa(rng.Intn(60))
		}
		checkNumAgainstReference(t, []byte(tok))
	}
}
