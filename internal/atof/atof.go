// Package atof converts between decimal text and float64 both ways, with
// strconv's bits and bytes. Parse and Convert turn decimal literals into
// the float64 strconv.ParseFloat returns, from a mantissa and exponent a
// caller has already accumulated while checking its own grammar — so a
// decoder walks a number's bytes once, not once to tokenize and again
// inside strconv. AppendFloat writes a float64 as encoding/json does, with
// strconv's shortest digits (ftoa.go).
//
// The conversion is strconv's optimized path (atof64 with optimize set):
// exact float64 arithmetic first, then the Eisel–Lemire algorithm. Where
// strconv would continue to its slow multiprecision path, Convert declines
// and the caller hands the literal to strconv.ParseFloat itself, which also
// produces strconv's range errors. Every value this package returns is
// therefore one strconv returns, and every value it cannot vouch for comes
// from strconv.
package atof

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
)

// MantLimit is the mantissa budget of a scan: a digit is appended to the
// mantissa m (m = 10*m + d) only while m < MantLimit, so m holds the first
// 19 significant digits — strconv's readFloat budget — and leading zeros
// cost nothing. A dropped digit in the integer part adds one to the decimal
// exponent; a kept digit in the fraction subtracts one; a dropped nonzero
// digit anywhere sets trunc.
const MantLimit = 1e18

// Convert returns the float64 nearest to mant·10^exp10, negated when neg,
// with the bits strconv.ParseFloat returns for a literal whose first 19
// significant digits are mant and whose decimal exponent is exp10. trunc
// reports that nonzero digits were dropped after those 19. ok is false
// exactly where strconv would take its slow decimal path; the caller must
// then call strconv.ParseFloat on the literal.
func Convert(mant uint64, exp10 int, neg, trunc bool) (f float64, ok bool) {
	if f, ok := Short(mant, exp10, neg); ok {
		return f, true
	}
	if !trunc {
		if f, ok := scaleUp(mant, exp10, neg); ok {
			return f, true
		}
	}
	f, ok = eiselLemire(mant, exp10, neg)
	if !ok || !trunc {
		return f, ok
	}
	// The dropped digits put the value in [mant, mant+1)·10^exp10: f is its
	// rounding when the upper bound rounds to f as well.
	up, ok := eiselLemire(mant+1, exp10, neg)
	return f, ok && f == up
}

// Short is Convert's first and most common case on its own, small enough
// to inline into a caller's digit loop, where a call to Convert would cost
// more than the conversion: a mantissa below 2^52 divided by an exact power
// of ten (10^0 … 10^22) — a decimal of at most 15 digits without an
// exponent, such as -0.517. Both operands are exact, so the one IEEE
// division is correctly rounded (Clinger's fast path, the division half of
// strconv's atof64exact). A mantissa below 2^52 is never truncated.
// ok=false means only that the caller must call Convert.
func Short(mant uint64, exp10 int, neg bool) (f float64, ok bool) {
	if k := uint(-exp10); mant>>52 == 0 && k < uint(len(float64pow10)) {
		f = float64(int64(mant)) / float64pow10[k] // int64: no unsigned fix-up
		return math.Float64frombits(math.Float64bits(f) | b2u(neg)<<63), true
	}
	return 0, false
}

// b2u is 1 for true and 0 for false. The conversions here apply a sign as
// a bit instead of branching on it: a branch on the sign of randomly signed
// numbers mispredicts on every other one.
func b2u(b bool) uint64 {
	var u uint64
	if b {
		u = 1
	}
	return u
}

// float64pow10 holds the powers of ten a float64 represents exactly.
var float64pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// scaleUp is the multiplication half of strconv's atof64exact: a mantissa
// below 2^52 times 10^k, k in 1 … 37, when the product of exact operands is
// one correctly rounded IEEE operation — 10^k exact for k <= 22, and up to
// 15 more zeros moved into the mantissa first while it stays <= 10^15.
func scaleUp(mant uint64, exp10 int, neg bool) (f float64, ok bool) {
	if mant>>52 != 0 || exp10 <= 0 || exp10 > 15+22 {
		return 0, false
	}
	f = float64(mant)
	if exp10 > 22 {
		f *= float64pow10[exp10-22]
		exp10 = 22
	}
	if f > 1e15 {
		return 0, false
	}
	// IEEE rounding is symmetric: the sign can come last.
	return math.Float64frombits(math.Float64bits(f*float64pow10[exp10]) | b2u(neg)<<63), true
}

const (
	minExp10 = -348
	maxExp10 = 347
)

// pow10 holds 10^q for q in [minExp10, maxExp10] as a 128-bit mantissa
// {lo, hi}, ⌊10^q · 2^(127−⌊log₂10^q⌋)⌋ — normalized so the top bit is set,
// truncated where inexact. It is strconv's detailedPowersOfTen, computed
// here rather than copied (about 0.15 ms at start-up).
var pow10 = func() (t [maxExp10 - minExp10 + 1][2]uint64) {
	ten := big.NewInt(10)
	mask := new(big.Int).SetUint64(math.MaxUint64)
	put := func(q int, v *big.Int) {
		var lo, hi big.Int
		t[q-minExp10] = [2]uint64{lo.And(v, mask).Uint64(), hi.Rsh(v, 64).Uint64()}
	}
	p := big.NewInt(1) // 10^k
	var v big.Int
	for k := 0; k <= -minExp10; k++ {
		if k <= maxExp10 {
			// ⌊log₂10^k⌋ = BitLen−1.
			if s := 127 - (p.BitLen() - 1); s >= 0 {
				v.Lsh(p, uint(s))
			} else {
				v.Rsh(p, uint(-s))
			}
			put(k, &v)
		}
		if k > 0 {
			// 10^k is not a power of two, so ⌊log₂10^−k⌋ = −BitLen.
			v.Lsh(big.NewInt(1), uint(127+p.BitLen()))
			put(-k, v.Quo(&v, p))
		}
		p.Mul(p, ten)
	}
	return t
}()

// eiselLemire is strconv's eiselLemire64: mant·10^exp10 from one 64×128-bit
// product with the 128-bit power of ten, declining (ok=false) when the
// truncated product cannot decide the rounding, and outside the normal
// float64 range — the cases strconv leaves to its slow path. The section
// names are those of https://nigeltao.github.io/blog/2020/eisel-lemire.html.
func eiselLemire(mant uint64, exp10 int, neg bool) (f float64, ok bool) {
	// Exp10 Range.
	if mant == 0 {
		return math.Float64frombits(b2u(neg) << 63), true
	}
	if exp10 < minExp10 || maxExp10 < exp10 {
		return 0, false
	}
	pow := &pow10[exp10-minExp10]

	// Normalization.
	clz := bits.LeadingZeros64(mant)
	mant <<= uint(clz)
	const bias = 1023
	retExp2 := uint64(217706*exp10>>16+64+bias) - uint64(clz)

	// Multiplication.
	xHi, xLo := bits.Mul64(mant, pow[1])

	// Wider Approximation.
	if xHi&0x1FF == 0x1FF && xLo+mant < mant {
		yHi, yLo := bits.Mul64(mant, pow[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+mant < mant {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shifting to 54 Bits.
	msb := xHi >> 63
	retMant := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Half-way Ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMant&3 == 1 {
		return 0, false
	}

	// From 54 to 53 Bits.
	retMant += retMant & 1
	retMant >>= 1
	if retMant>>53 > 0 {
		retMant >>= 1
		retExp2++
	}
	// retExp2 is unsigned: 0 (or wrapped below it) is subnormal, 0x7FF and
	// above is Inf/NaN — both left to strconv.
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	return math.Float64frombits(b2u(neg)<<63 | retExp2<<52 | retMant&(1<<52-1)), true
}

// Parse converts b when all of it is one literal of strconv's decimal
// grammar, [+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?, and Convert accepts it;
// f is then strconv.ParseFloat(string(b), 64). Any other input — inf, nan,
// hex, underscores, a byte after the literal, or a value Convert declines —
// reports false, and the caller hands b to strconv.ParseFloat.
func Parse(b []byte) (f float64, ok bool) {
	if len(b) == 0 {
		return 0, false
	}
	neg := b[0] == '-'
	i := int(b2u(neg) | b2u(b[0] == '+'))
	start := i
	i, m, e, trunc := Digits(b, i, 0)
	nd := i - start
	if i < len(b) && b[i] == '.' {
		frac := i + 1
		var dropped int
		var t bool
		i, m, dropped, t = Digits(b, frac, m)
		nd += i - frac
		e -= i - frac - dropped
		trunc = trunc || t
	}
	if nd == 0 {
		return 0, false
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		eneg := 0
		if i < len(b) {
			eneg = int(b2u(b[i] == '-'))
			i += eneg | int(b2u(b[i] == '+'))
		}
		if i == len(b) || b[i]-'0' > 9 {
			return 0, false
		}
		x := 0
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if x < 10000 { // strconv saturates here too
				x = x*10 + int(b[i]-'0')
			}
		}
		e += x ^ -eneg + eneg // -x when eneg
	}
	if i != len(b) {
		return 0, false
	}
	return Convert(m, e, neg, trunc)
}

// Digits appends the run of decimal digits at b[i:] to the mantissa m under
// the MantLimit rule and returns the index after the run, the new mantissa,
// how many of the run's digits were dropped, and whether one of those was
// nonzero. While m < 10^10 a run of eight digits fits whole, and is taken
// in one step.
func Digits(b []byte, i int, m uint64) (next int, mant uint64, dropped int, trunc bool) {
	for m < 1e10 && len(b)-i >= 8 {
		x := binary.LittleEndian.Uint64(b[i:])
		if !eightDigits(x) {
			break
		}
		m = m*1e8 + eightValue(x)
		i += 8
	}
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		if m < MantLimit {
			m = m*10 + uint64(b[i]-'0')
		} else {
			dropped++
			trunc = trunc || b[i] != '0'
		}
	}
	return i, m, dropped, trunc
}

// eightDigits reports whether all eight bytes of x (little-endian) are
// ASCII digits: no byte is below '0' (x−0x30… borrows into bit 7) or above
// '9' (x+0x46… carries into bit 7).
func eightDigits(x uint64) bool {
	return ((x+0x4646464646464646)|(x-0x3030303030303030))&0x8080808080808080 == 0
}

// eightValue is the value of eight ASCII digits loaded little-endian (the
// first digit in the low byte): pairs, then quads, then the whole, each step
// one multiply-add on all lanes.
func eightValue(x uint64) uint64 {
	x -= 0x3030303030303030
	x = x*10 + x>>8 // byte 2k holds digits 2k,2k+1 as a two-digit number
	x = ((x&0x000000FF000000FF)*(100+1000000<<32) + (x>>16&0x000000FF000000FF)*(1+10000<<32)) >> 32
	return x & 0xFFFFFFFF
}
