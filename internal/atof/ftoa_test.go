package atof

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"
)

// checkAppend fails t unless AppendFloat writes the bytes json.Marshal
// writes for f, appended after a prefix it must leave alone.
func checkAppend(t *testing.T, f float64) {
	t.Helper()
	want, err := json.Marshal(f)
	if err != nil {
		return // non-finite: the caller's error, not a form
	}
	if got := AppendFloat([]byte("x"), f); string(got[1:]) != string(want) || got[0] != 'x' {
		t.Fatalf("AppendFloat(%#x) = %q, json.Marshal %q", math.Float64bits(f), got[1:], want)
	}
}

// FuzzAppendFloat holds AppendFloat to json.Marshal on any float64 bits,
// and its length to MaxLen.
func FuzzAppendFloat(f *testing.F) {
	for _, seed := range []uint64{0, 1, 2, 3, 1 << 52, 1<<52 - 1, 0x7FEFFFFFFFFFFFFF,
		math.Float64bits(1e-6), math.Float64bits(1e21), math.Float64bits(1<<50 + 0.25),
		math.Float64bits(0.1), math.Float64bits(-123.456), math.Float64bits(1 << 53),
		math.Float64bits(1.2345678901234567e-6), math.Float64bits(2.2250738585072014e-308)} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b uint64) {
		for _, f := range []float64{math.Float64frombits(b), -math.Float64frombits(b)} {
			checkAppend(t, f)
			if n := len(AppendFloat(nil, f)); n > MaxLen {
				t.Fatalf("AppendFloat(%#x) is %d bytes, MaxLen %d", math.Float64bits(f), n, MaxLen)
			}
		}
	})
}

// TestAppendFloatEdges holds AppendFloat to json.Marshal where shortest
// digit generators go wrong: every power of two and its neighbours (the
// irregular interval below each, the subnormals, and the round-half-even
// ties of [2^50, 2^51), whose ulp is 1/4), powers of ten and their
// neighbours, integers around 2^53, json's switches between 'f' and 'e',
// the extremes, every subnormal below 2^-1064 (where Java's Double.toString
// keeps two digits and strconv one) and 10^6 seeded random bit patterns.
func TestAppendFloatEdges(t *testing.T) {
	around := func(f float64, n int) {
		up, down := f, f
		for i := 0; i <= n; i++ {
			checkAppend(t, up)
			checkAppend(t, down)
			checkAppend(t, -up)
			up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, math.Inf(-1))
		}
	}
	for e := -1074; e <= 1023; e++ {
		around(math.Ldexp(1, e), 1)
	}
	for k := -7; k <= 22; k++ {
		around(math.Pow(10, float64(k)), 3)
	}
	around(1<<53, 1000)
	around(1e-6, 100)
	around(1e21, 100)
	for _, f := range []float64{1<<50 + 0.25, 1<<50 + 0.75, 1<<51 - 0.25, 1234567890123456.25,
		math.Copysign(0, -1), 5e-324, math.SmallestNonzeroFloat64, math.MaxFloat64, 0.1, 0.3} {
		around(f, 0)
	}
	for b := uint64(1); b < 1<<10; b++ {
		checkAppend(t, math.Float64frombits(b))
	}
	rng := rand.New(rand.NewSource(44))
	for i := 0; i < 1e6; i++ {
		checkAppend(t, math.Float64frombits(rng.Uint64()))
	}
}

// TestAppendFloatLayouts holds AppendFloat to json.Marshal at every place
// json's 'f' notation can put the decimal point, point = -5 … 21 for
// 0.digits·10^point, with 1 to 17 digits and either sign, and one ulp either
// side of each. The point falls before, inside and after the digits, so the
// tail AppendFloat moves to make room for it is exercised at point = 0, 1,
// n-1 and n, and behind six leading zeros at point = -5.
func TestAppendFloatLayouts(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for point := -5; point <= 21; point++ {
		for n := 1; n <= 17; n++ {
			for draw := 0; draw < 4; draw++ {
				// n digits, the first and last nonzero; all nines on the
				// last draw, where rounding to fewer digits carries.
				digits := bytes.Repeat([]byte{'9'}, n)
				if draw < 3 {
					for k := range digits {
						digits[k] = byte('0' + rng.Intn(10))
					}
					digits[0] = byte('1' + rng.Intn(9))
					digits[n-1] = max(digits[n-1], '1')
				}
				f, err := strconv.ParseFloat(fmt.Sprintf("0.%se%d", digits, point), 64)
				if err != nil {
					t.Fatal(err)
				}
				for _, g := range []float64{f, math.Nextafter(f, 0), math.Nextafter(f, math.Inf(1))} {
					checkAppend(t, g)
					checkAppend(t, -g)
				}
			}
		}
	}
}

// TestAppendFloatNonFinite: values JSON cannot carry are appended as
// strconv spells them, never as digits.
func TestAppendFloatNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got, want := string(AppendFloat(nil, f)), strconv.FormatFloat(f, 'g', -1, 64); got != want {
			t.Errorf("AppendFloat(%v) = %q, want %q", f, got, want)
		}
	}
}

// floorLog10 is ⌊log₁₀ r⌋ for r > 0, exactly.
func floorLog10(r *big.Rat) int {
	f, _ := r.Float64()
	j := int(math.Floor(math.Log10(f)))
	pow := func(j int) *big.Rat {
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(j, -j))), nil)
		if j < 0 {
			return new(big.Rat).SetFrac(big.NewInt(1), p)
		}
		return new(big.Rat).SetInt(p)
	}
	for pow(j).Cmp(r) > 0 {
		j--
	}
	for pow(j+1).Cmp(r) <= 0 {
		j++
	}
	return j
}

// TestLogApproximations checks the fixed-point logarithms against exact
// ones over every exponent a float64 reaches: 2^q for q in [−1074, 971],
// and the powers of ten flog10pow2 returns for them.
func TestLogApproximations(t *testing.T) {
	two := func(q int) *big.Rat {
		if q < 0 {
			return new(big.Rat).SetFrac(big.NewInt(1), new(big.Int).Lsh(big.NewInt(1), uint(-q)))
		}
		return new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), uint(q)))
	}
	for q := -1074; q <= 971; q++ {
		if got, want := flog10pow2(q), floorLog10(two(q)); got != want {
			t.Fatalf("flog10pow2(%d) = %d, want %d", q, got, want)
		}
		r := two(q)
		r.Mul(r, big.NewRat(3, 4))
		if got, want := flog10threeQuartersPow2(q), floorLog10(r); got != want {
			t.Fatalf("flog10threeQuartersPow2(%d) = %d, want %d", q, got, want)
		}
	}
	for e := -flog10pow2(971) - 1; e <= -flog10pow2(-1074)+1; e++ {
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(e, -e))), nil)
		want := p.BitLen() - 1 // ⌊log₂ 10^e⌋, e >= 0
		if e < 0 {
			want = -p.BitLen() // 10^-e is not a power of two
		}
		if got := flog2pow10(e); got != want {
			t.Fatalf("flog2pow10(%d) = %d, want %d", e, got, want)
		}
	}
}

// TestSchubfachTable derives Giulietti's g for every power of ten shortest
// reads, g = ⌊10^e·2^(125−⌊log₂10^e⌋)⌋ + 1, with math/big, and requires the
// one shortest builds from pow10 to equal it.
func TestSchubfachTable(t *testing.T) {
	for k := flog10pow2(-1074) - 1; k <= flog10pow2(971); k++ {
		e := -k
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(e, -e))), nil)
		var want big.Int
		if e >= 0 {
			if s := 125 - (p.BitLen() - 1); s >= 0 {
				want.Lsh(p, uint(s))
			} else {
				want.Rsh(p, uint(-s))
			}
		} else {
			want.Quo(new(big.Int).Lsh(big.NewInt(1), uint(125+p.BitLen())), p)
		}
		want.Add(&want, big.NewInt(1))
		pw := pow10[e-minExp10]
		got := new(big.Int).Lsh(new(big.Int).SetUint64(pw[1]), 64)
		got.Or(got, new(big.Int).SetUint64(pw[0]))
		got.Rsh(got, 2).Add(got, big.NewInt(1))
		if got.Cmp(&want) != 0 {
			t.Fatalf("g for 10^%d = %#x, want %#x", e, got, &want)
		}
	}
}

// TestEightASCII sweeps each four-digit half of eightASCII's input through
// every value with the other half fixed, against strconv.
func TestEightASCII(t *testing.T) {
	var buf [8]byte
	check := func(x uint64) {
		v := eightASCII(x)
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		if want := strconv.FormatUint(x+1e8, 10)[1:]; string(buf[:]) != want {
			t.Fatalf("eightASCII(%d) = %q, want %q", x, buf[:], want)
		}
	}
	for a := uint64(0); a < 1e4; a++ {
		for _, b := range []uint64{0, 1, 9, 10, 99, 100, 5000, 9999} {
			check(a*1e4 + b)
			check(b*1e4 + a)
		}
	}
}

// resultLike is n floats shaped like spmvd's products: sums of a few
// products of normal deviates, with all 17 significant digits.
func resultLike(n int) []float64 {
	rng := rand.New(rand.NewSource(1))
	fs := make([]float64, n)
	for i := range fs {
		for k := 0; k < 8; k++ {
			fs[i] += rng.NormFloat64() * rng.NormFloat64()
		}
	}
	return fs
}

// BenchmarkAppendFloat formats 4000 result-like floats with AppendFloat
// and with the strconv call encoding/json makes, in ns/float. Result-like
// floats are signed at random; "atof-positive" formats their magnitudes and
// "atof-one-layout" magnitudes moved into [1, 2), so that every float has
// the same sign and the same point position and no branch on either can
// mispredict.
func BenchmarkAppendFloat(b *testing.B) {
	fs := resultLike(4000)
	positive := make([]float64, len(fs))
	oneLayout := make([]float64, len(fs))
	for i, f := range fs {
		positive[i] = math.Abs(f)
		oneLayout[i] = 1 + math.Mod(math.Abs(f), 1)
	}
	atof := AppendFloat
	for _, bc := range []struct {
		name string
		fs   []float64
		app  func([]byte, float64) []byte
	}{
		{"atof", fs, atof},
		{"atof-positive", positive, atof},
		{"atof-one-layout", oneLayout, atof},
		{"strconv", fs, func(dst []byte, f float64) []byte { return strconv.AppendFloat(dst, f, 'f', -1, 64) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			buf := make([]byte, 0, 32*len(bc.fs))
			for i := 0; i < b.N; i++ {
				buf = buf[:0]
				for _, f := range bc.fs {
					buf = bc.app(buf, f)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(bc.fs)), "ns/float")
		})
	}
}
