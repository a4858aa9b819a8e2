package atof

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// checkParse fails t unless Parse agrees with strconv.ParseFloat on s: a
// literal Parse accepts is one strconv accepts, with the same bits. A
// literal it declines goes to strconv.ParseFloat itself, which is the
// caller's fallback, so there is nothing further to compare.
func checkParse(t *testing.T, s string) (ok bool) {
	t.Helper()
	f, ok := Parse([]byte(s))
	if !ok {
		return false
	}
	want, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("Parse(%q) = %v, ok; strconv: %v", s, f, err)
	}
	if math.Float64bits(f) != math.Float64bits(want) {
		t.Fatalf("Parse(%q) = %v (%#x), strconv %v (%#x)", s, f, math.Float64bits(f), want, math.Float64bits(want))
	}
	return true
}

// FuzzConvert holds the scan plus Convert to strconv.ParseFloat on any
// input: whatever Parse accepts, strconv accepts with the same bits.
// Everything else is strconv's own result, error and all.
func FuzzConvert(f *testing.F) {
	for _, seed := range []string{
		"0", "-0", "+0", "0.", ".0", ".", "-.5", "1.", "007", "0.000", "-0e999",
		"1e", "1e+", "1E-0", "1e999", "-1e-400", "1e-320", "4.9406564584124654e-324",
		"2.2250738585072011e-308", "2.2250738585072014e-308", "1.7976931348623157e308",
		"1.7976931348623159e308", "9007199254740993", "0.72999999999999998",
		"1.2345678901234567e-05", "12345678901234567890", "123456789012345678901e-2",
		"0.1000000000000000055511151231257827021181583404541015625",
		"7.4109846876186982e-323", "1e23", "8.41e21", "1_0", "0x1p-2", "inf", "NaN",
		"12345678:", "1234567/9", "99999999.99999999e-8", "1e00000000000000000022",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4<<10 {
			return
		}
		checkParse(t, string(data))
	})
}

// TestPow10Table checks every entry of the Eisel–Lemire table two ways.
// First against 10^Q rounded toward zero to 128 bits by big.Float, a second
// derivation of the same numbers; then through the conversion, with
// literals that read the entry: 1eQ, 9.999999999999999eQ, the %.17g
// spellings of 10^Q's float64 neighbours, and the exact decimal halfway
// point between 10^Q's float64 and the next one up (more than 19 digits, so
// it exercises the mant+1 confirmation). In the normal range every 1eQ must
// also be converted here, not declined.
func TestPow10Table(t *testing.T) {
	ten := new(big.Int).Exp(big.NewInt(10), big.NewInt(-minExp10), nil)
	for q := minExp10; q <= maxExp10; q++ {
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(q-minExp10)), nil)
		x := new(big.Float).SetPrec(128).SetMode(big.ToZero)
		x.Quo(new(big.Float).SetInt(p), new(big.Float).SetInt(ten))
		var m big.Float
		x.MantExp(&m)
		want, _ := m.SetMantExp(&m, 128).Int(nil)
		got := new(big.Int).Lsh(new(big.Int).SetUint64(pow10[q-minExp10][1]), 64)
		got.Or(got, new(big.Int).SetUint64(pow10[q-minExp10][0]))
		if got.Cmp(want) != 0 {
			t.Fatalf("pow10 entry 1e%d = %#x, want %#x", q, got, want)
		}
	}

	declined := 0
	for q := minExp10; q <= maxExp10; q++ {
		one := fmt.Sprintf("1e%d", q)
		if !checkParse(t, one) && q >= -307 && q <= 308 {
			t.Errorf("Parse(%q) declined", one)
		}
		lits := []string{fmt.Sprintf("9.999999999999999e%d", q), fmt.Sprintf("-1e%d", q)}
		v, _ := strconv.ParseFloat(one, 64)
		if v != 0 && !math.IsInf(v, 0) {
			up, down := math.Nextafter(v, math.Inf(1)), math.Nextafter(v, 0)
			lits = append(lits, strconv.FormatFloat(up, 'g', 17, 64), strconv.FormatFloat(down, 'g', 17, 64))
			if !math.IsInf(up, 0) {
				mid := new(big.Float).SetPrec(64).SetFloat64(v)
				mid.Add(mid, new(big.Float).SetFloat64(up)).Quo(mid, big.NewFloat(2))
				lits = append(lits, mid.Text('e', 800))
			}
		}
		for _, s := range lits {
			if !checkParse(t, s) {
				declined++
			}
		}
	}
	t.Logf("%d of %d neighbour and halfway literals declined to strconv", declined, 5*(maxExp10-minExp10+1))
}

// TestParseMatchesStrconv replays 10^5 seeded literals of the shapes that
// matter — 1 to 25 digit mantissas with leading and trailing zeros, signs,
// bare dots, exponents near the exact and Eisel–Lemire edges — and requires
// that the 3-decimal and, all but a rare few, the %.17g spellings a client
// sends are converted here, not declined.
func TestParseMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	digitRun := func(n int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteByte(byte('0' + rng.Intn(10)))
		}
		return b.String()
	}
	declined := 0
	for c := 0; c < 100000; c++ {
		tok := []string{"", "-", "+"}[rng.Intn(3)]
		tok += strings.Repeat("0", rng.Intn(3)) + digitRun(rng.Intn(22))
		if rng.Intn(3) > 0 {
			tok += "." + strings.Repeat("0", rng.Intn(4)*rng.Intn(4)) + digitRun(rng.Intn(20))
		}
		if rng.Intn(3) == 0 {
			tok += []string{"e", "E", "e+", "e-", "E-"}[rng.Intn(5)] + strconv.Itoa(rng.Intn(400))
		}
		checkParse(t, tok)

		v := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(30)-20))
		if !checkParse(t, strconv.FormatFloat(v, 'g', 17, 64)) {
			declined++
		}
		if s := strconv.FormatFloat(rng.NormFloat64()*1e3, 'f', 3, 64); !checkParse(t, s) {
			t.Fatalf("Parse(%q) declined", s)
		}
	}
	// Eisel–Lemire declines when the truncated power of ten cannot decide
	// the rounding, as for 2260941260385393.5 — a float64 whose 17 digits are
	// exact — and strconv then takes its slow path too. Such values have
	// magnitudes near 2^52; these stay below 10^10.
	if declined > 10 {
		t.Errorf("%d of 100000 %%.17g literals declined to strconv, want <= 10", declined)
	}
}

// TestEightDigits holds the eight-byte digit test to the byte-by-byte one
// on every byte value at every lane, and the eight-digit value to the
// decimal one.
func TestEightDigits(t *testing.T) {
	base := []byte("31415926")
	for lane := 0; lane < 8; lane++ {
		for c := 0; c < 256; c++ {
			b := append([]byte(nil), base...)
			b[lane] = byte(c)
			x := binary.LittleEndian.Uint64(b)
			want := '0' <= c && c <= '9'
			if got := eightDigits(x); got != want {
				t.Fatalf("eightDigits(%q) = %v", b, got)
			}
			if want {
				n, _ := strconv.ParseUint(string(b), 10, 64)
				if got := eightValue(x); got != n {
					t.Fatalf("eightValue(%q) = %d", b, got)
				}
			}
		}
	}
}
