package atof

import (
	"encoding/binary"
	"math"
	"math/bits"
	"strconv"
)

// AppendFloat appends f as encoding/json writes a float64: strconv's
// shortest round-trip digits, in 'f' notation when 1e-6 <= |f| < 1e21 and
// in 'e' notation otherwise, with a negative exponent's leading zero
// dropped (1e-7, not 1e-07). Callers check finiteness first: JSON has no
// form for NaN or ±Inf, which are appended as strconv spells them.
//
// The digits come from Schubfach (R. Giulietti, "The Schubfach way to
// render doubles", 2020), which finds the shortest decimal in a float's
// rounding interval from three 64×128-bit products, without strconv's
// digit-trimming loop. Its 126-bit powers of ten are pow10's entries shifted
// down two bits, plus one.
func AppendFloat(dst []byte, f float64) []byte {
	b := math.Float64bits(f)
	if b<<1 >= 0x7FF<<53 {
		return strconv.AppendFloat(dst, f, 'g', -1, 64)
	}
	// The longest form, -0.0000012345678901234567, is 25 bytes; out has 48
	// so the digit words can be stored whole and the tail after the point
	// moved as three words.
	n0 := len(dst)
	if cap(dst)-n0 < 48 {
		dst = append(dst, make([]byte, 48)...)[:n0]
	}
	out := dst[n0 : n0+48]
	// The sign is written always and kept by starting past it or not: a
	// branch on it mispredicts on every other float of a signed vector.
	out[0] = '-'
	i := int(b >> 63)
	if b<<1 == 0 {
		out[i] = '0'
		return dst[:n0+i+1]
	}
	d, e := shortest(b &^ (1 << 63))
	size := decimalLen(d)
	point := e + size // the value is 0.digits·10^point
	if a := math.Abs(f); a < 1e-6 || a >= 1e21 {
		// d.ddde±x: the digits from i+1, the first moved in front of the point.
		n := digits17(out[i+1:], d, size)
		out[i] = out[i+1]
		i++
		if n > 1 {
			out[i] = '.'
			i += n
		}
		x := point - 1
		out[i] = 'e'
		out[i+1] = '+'
		if x < 0 {
			out[i+1], x = '-', -x
		}
		i += 2
		if x >= 100 {
			out[i] = byte('0' + x/100)
			i++
		}
		if x >= 10 {
			out[i] = byte('0' + x/10%10)
			i++
		}
		out[i] = byte('0' + x%10)
		return dst[:n0+i+1]
	}
	// 0.000ddd and dd.ddd are one layout: pre '0' bytes (at most 6, as
	// |f| >= 1e-6), the digits, and the point put in after max(point, 1)
	// bytes.
	const zeros = 0x3030303030303030
	binary.LittleEndian.PutUint64(out[i:], zeros)
	pre := max(1-point, 0)
	n := digits17(out[i+pre:], d, size)
	if point >= n {
		// ddd000: point <= 21, as |f| < 1e21.
		for k := i + n; k < i+point; k += 8 {
			binary.LittleEndian.PutUint64(out[k:], zeros)
		}
		return dst[:n0+i+point]
	}
	// Move the <= 24 bytes from the point's place up one, as whole words,
	// and put the point into the gap.
	p := i + pre + point
	t := out[p : p+25]
	w0 := binary.LittleEndian.Uint64(t[0:])
	w1 := binary.LittleEndian.Uint64(t[8:])
	w2 := binary.LittleEndian.Uint64(t[16:])
	binary.LittleEndian.PutUint64(t[1:], w0)
	binary.LittleEndian.PutUint64(t[9:], w1)
	binary.LittleEndian.PutUint64(t[17:], w2)
	t[0] = '.'
	return dst[:n0+i+pre+n+1]
}

// shortest returns the shortest decimal d·10^e that rounds to the positive
// finite float64 with bits b, the one nearest to it when several are that
// short, and the one with the even last digit when two are nearest: the
// digits strconv.FormatFloat(f, 'e', -1, 64) prints. This is Schubfach as
// its paper states it (figure 7, with figure 9's computations); Java's
// Double.toString, the reference implementation, also widens subnormals
// below 3·2^-1074 to two digits, which strconv does not.
func shortest(b uint64) (d uint64, e int) {
	const cMin = 1 << 52
	c := b & (cMin - 1)
	q := -1074
	if bq := int(b >> 52); bq != 0 {
		c |= cMin
		q = bq - 1075
		// An integer below 2^53 is its own shortest decimal.
		if -53 < q && q < 0 {
			if f := c >> -q; f<<-q == c {
				return f, 0
			}
		}
	}
	// The rounding interval is [cbl, cbr]·2^(q-2), open when c is odd.
	out := c & 1
	cb := c << 2
	cbr := cb + 2
	var cbl uint64
	var k int
	if c != cMin || q == -1074 {
		cbl, k = cb-2, flog10pow2(q)
	} else {
		// A power of two's interval reaches half as far below it.
		cbl, k = cb-1, flog10threeQuartersPow2(q)
	}
	h := q + flog2pow10(-k) + 2

	// g = ⌊10^-k·2^(125−⌊log₂10^-k⌋)⌋ + 1 = g1·2^63 + g0.
	p := &pow10[-k-minExp10]
	lo, carry := bits.Add64(p[1]<<62|p[0]>>2, 1, 0)
	g1 := (p[1]>>2+carry)<<1 | lo>>63
	g0 := lo &^ (1 << 63)

	// 4v, its interval's bounds, all scaled by 10^-k and rounded to odd.
	vb := rop(g1, g0, cb<<h)
	vbl := rop(g1, g0, cbl<<h)
	vbr := rop(g1, g0, cbr<<h)

	// One digit fewer: at most one multiple of 10^(k+1) fits the interval,
	// sp or sp+10, and is the answer when exactly one does. Otherwise one or
	// both of s and t = s+1 fit: the one that does, or when both do the
	// nearer, ties to even. The choice is made with 0/1 arithmetic, not
	// branches, which would mispredict on digits that are as good as random.
	s := vb >> 2
	sp := s / 10 * 10
	t := s + 1
	upin := b2u(vbl+out <= sp<<2)
	wpin := b2u((sp+10)<<2+out <= vbr)
	uin := b2u(vbl+out <= s<<2)
	win := b2u(t<<2+out <= vbr)
	cmp := int64(vb - (s+t)<<1)
	toS := b2u(cmp < 0) | b2u(cmp == 0)&^s // s is nearer, or as near and even
	one := uin ^ win                       // exactly one of s and t fits
	long := s + (one&win | (one^1)&(toS^1))
	short := upin ^ wpin
	return long + -short&(sp+10*wpin-long), k // sp+10*wpin when short
}

// rop is g·cp / 2^127 rounded to odd, for g = g1·2^63 + g0, computed as
// the paper's figure 8 does: the product's low 64 bits and g0·cp's never
// reach the result. That truncation is part of the proof — with it, the
// +1 in g cannot make an exact product look inexact.
func rop(g1, g0, cp uint64) uint64 {
	x1, _ := bits.Mul64(g0, cp)
	y1, y0 := bits.Mul64(g1, cp)
	z := y0>>1 + x1
	return y1 + z>>63 | (z&(1<<63-1)+(1<<63-1))>>63
}

// flog10pow2 is ⌊log₁₀ 2^e⌋, flog10threeQuartersPow2 ⌊log₁₀ (3/4·2^e)⌋
// and flog2pow10 ⌊log₂ 10^e⌋, each exact over the exponents of float64
// (TestLogApproximations).
func flog10pow2(e int) int { return e * 661_971_961_083 >> 41 }

func flog10threeQuartersPow2(e int) int { return (e*661_971_961_083 - 274_743_187_321) >> 41 }

func flog2pow10(e int) int { return e * 913_124_641_741 >> 38 }

// uint64pow10 holds the powers of ten below 2^64 that digits17 scales by.
var uint64pow10 = [...]uint64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8,
	1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17}

// decimalLen is the number of decimal digits of d > 0.
func decimalLen(d uint64) int {
	size := flog10pow2(bits.Len64(d))
	if d >= uint64pow10[size] {
		size++
	}
	return size
}

// digits17 writes the size decimal digits of d (0 < d < 10^17), padded
// with zeros to 17, to buf, eight at a time, and returns how many of them
// precede the trailing zeros. buf has room for 24 bytes.
func digits17(buf []byte, d uint64, size int) (n int) {
	d *= uint64pow10[17-size]
	hm := d / 1e8
	l := d - hm*1e8
	h := hm / 1e8
	_ = buf[23]
	buf[0] = byte('0' + h)
	binary.LittleEndian.PutUint64(buf[1:], eightASCII(hm-h*1e8))
	binary.LittleEndian.PutUint64(buf[9:], eightASCII(l))
	// The trailing '0' bytes are the high bytes of the last nonzero word.
	if l == 0 {
		return 9 - trailingZeros(buf[1:])
	}
	return 17 - trailingZeros(buf[9:])
}

// trailingZeros counts the '0' bytes ending the eight digits at b.
func trailingZeros(b []byte) int {
	return bits.LeadingZeros64(binary.LittleEndian.Uint64(b)^0x3030303030303030) >> 3
}

// eightASCII returns the eight decimal digits of x < 10^8, zero-padded,
// as ASCII bytes to store little-endian: halves, then quarters, then
// single digits, each split one multiply on every lane at once.
func eightASCII(x uint64) uint64 {
	v := x/10000 | x%10000<<32
	q := v * 10486 >> 20 & 0x0000007F0000007F // each lane / 100
	v = q | (v-q*100)<<16
	q = v * 103 >> 10 & 0x000F000F000F000F // each lane / 10
	v = q | (v-q*10)<<8
	return v + 0x3030303030303030
}
