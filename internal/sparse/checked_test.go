package sparse

import (
	"math"
	"math/rand"
	"testing"
)

// checkAgainstValidate holds one MulVecChecked call to its specification:
// the error is Validate's (both nil or the same text), a valid matrix yields
// MulVec's bits, and a short vector on a valid matrix panics like MulVec.
// A corrupt matrix must not panic whatever the vector lengths.
func checkAgainstValidate(t *testing.T, name string, a *CSR, v []float64, rows int) {
	t.Helper()
	want := a.Validate()
	short := len(v) < a.Cols
	u := make([]float64, rows)
	var err error
	panicked := func() (p bool) {
		defer func() { p = recover() != nil }()
		err = a.MulVecChecked(v, u)
		return false
	}()
	switch {
	case want == nil && short:
		if !panicked {
			t.Fatalf("%s: valid matrix with len(v)=%d < Cols=%d did not panic", name, len(v), a.Cols)
		}
		return
	case panicked:
		t.Fatalf("%s: MulVecChecked panicked (Validate: %v)", name, want)
	case (err == nil) != (want == nil) || err != nil && err.Error() != want.Error():
		t.Fatalf("%s: MulVecChecked = %v, Validate = %v", name, err, want)
	case err != nil:
		return
	}
	ref := make([]float64, rows)
	a.MulVec(v, ref)
	for i := range ref {
		if math.Float64bits(u[i]) != math.Float64bits(ref[i]) {
			t.Fatalf("%s: row %d: MulVecChecked %v, MulVec %v", name, i, u[i], ref[i])
		}
	}
}

// oddValues mixes ordinary numbers with the values that make a bitwise
// comparison meaningful: signed zeros, subnormals, infinities, NaN.
var oddValues = []float64{
	0, math.Copysign(0, -1), 1, -2.5, 1e-310, -5e-324, math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(), 1.0 / 3, 7e22,
}

func vecFor(rng *rand.Rand, n int) []float64 {
	v := make([]float64, max(n, 0))
	for i := range v {
		if rng.Intn(8) == 0 {
			v[i] = oddValues[rng.Intn(len(oddValues))]
		} else {
			v[i] = rng.NormFloat64()
		}
	}
	return v
}

// corruptions break one invariant each at a random position; some leave
// the matrix valid (an interior RowPtr moved within its neighbours), which
// the comparison covers as well. Each tolerates an earlier corruption having
// emptied a slice.
var corruptions = []func(rng *rand.Rand, a *CSR){
	func(rng *rand.Rand, a *CSR) { a.RowPtr = a.RowPtr[:max(len(a.RowPtr)-1, 0)] },
	func(rng *rand.Rand, a *CSR) { a.RowPtr = append(a.RowPtr, int64(a.NNZ())) },
	func(rng *rand.Rand, a *CSR) { *somePtr(rng, a, true) = int64(1 + rng.Intn(3)) },
	func(rng *rand.Rand, a *CSR) { *somePtr(rng, a, true) = -1 },
	func(rng *rand.Rand, a *CSR) { *somePtr(rng, a, false) += int64(rng.Intn(7) - 3) },
	func(rng *rand.Rand, a *CSR) { *somePtr(rng, a, false) = int64(a.NNZ() + 1 + rng.Intn(5)) },
	func(rng *rand.Rand, a *CSR) { *somePtr(rng, a, false) = math.MinInt64 + int64(rng.Intn(3)) },
	func(rng *rand.Rand, a *CSR) { *somePtr(rng, a, false) = math.MaxInt64 - int64(rng.Intn(3)) },
	func(rng *rand.Rand, a *CSR) { *someCol(rng, a) = int32(a.Cols + rng.Intn(3)) },
	func(rng *rand.Rand, a *CSR) { *someCol(rng, a) = -1 - int32(rng.Intn(3)) },
	func(rng *rand.Rand, a *CSR) { *someCol(rng, a) = math.MinInt32 },
	func(rng *rand.Rand, a *CSR) { a.Val = a.Val[:rng.Intn(len(a.Val)+1)] },
	func(rng *rand.Rand, a *CSR) { a.Val = append(a.Val, 1) },
	func(rng *rand.Rand, a *CSR) { a.ColIdx = a.ColIdx[:rng.Intn(len(a.ColIdx)+1)] },
	func(rng *rand.Rand, a *CSR) { a.Rows = -1 - rng.Intn(2) },
	func(rng *rand.Rand, a *CSR) { a.Cols = -1 - rng.Intn(2) },
	func(rng *rand.Rand, a *CSR) { a.Rows += rng.Intn(3) - 1 },
	func(rng *rand.Rand, a *CSR) { a.Cols -= rng.Intn(3) },
	func(rng *rand.Rand, a *CSR) { a.RowPtr = nil },
}

// somePtr picks RowPtr[0] (first) or any RowPtr entry, or a throwaway when
// RowPtr is empty.
func somePtr(rng *rand.Rand, a *CSR, first bool) *int64 {
	if len(a.RowPtr) == 0 {
		return new(int64)
	}
	if first {
		return &a.RowPtr[0]
	}
	return &a.RowPtr[rng.Intn(len(a.RowPtr))]
}

// someCol picks any ColIdx entry, or a throwaway when there is none.
func someCol(rng *rand.Rand, a *CSR) *int32 {
	if len(a.ColIdx) == 0 {
		return new(int32)
	}
	return &a.ColIdx[rng.Intn(len(a.ColIdx))]
}

// TestMulVecCheckedMatchesValidate runs the corruptions of
// TestCSRValidateErrors and 10^4 seeded random ones through MulVecChecked.
func TestMulVecCheckedMatchesValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	good := Figure1()
	for _, tc := range []struct {
		name   string
		mutate func(*CSR)
	}{
		{"valid", func(*CSR) {}},
		{"short rowptr", func(a *CSR) { a.RowPtr = a.RowPtr[:3] }},
		{"nonzero first", func(a *CSR) { a.RowPtr[0] = 1 }},
		{"decreasing", func(a *CSR) { a.RowPtr[2] = 1 }},
		{"nnz mismatch", func(a *CSR) { a.Val = a.Val[:5] }},
		{"col out of range", func(a *CSR) { a.ColIdx[0] = 99 }},
		{"negative col", func(a *CSR) { a.ColIdx[3] = -1 }},
		{"negative dims", func(a *CSR) { a.Rows = -1 }},
	} {
		a := good.Clone()
		tc.mutate(a)
		checkAgainstValidate(t, tc.name, a, vecFor(rng, good.Cols), good.Rows)
	}

	for trial := 0; trial < 10000; trial++ {
		a := randomCSR(rng, rng.Intn(12), 1+rng.Intn(12), 5)
		for n := 1 + rng.Intn(2); n > 0; n-- {
			corruptions[rng.Intn(len(corruptions))](rng, a)
		}
		if rng.Intn(4) == 0 {
			for k := range a.Val {
				a.Val[k] = oddValues[rng.Intn(len(oddValues))]
			}
		}
		cols := a.Cols - rng.Intn(4)/3 // now and then one short
		checkAgainstValidate(t, "random", a, vecFor(rng, cols), max(a.Rows, 0))
	}
}

// fuzzCSR decodes arbitrary bytes into a CSR that may break any invariant
// Validate checks — negative dimensions, a short or over-long RowPtr, a
// nonzero or decreasing RowPtr, pointers past nnz, negative or too-large
// columns, len(Val) != len(ColIdx) — and a vector that is now and then one
// element short. Every byte string decodes; zero bytes decode to the empty
// 0x0 matrix.
func fuzzCSR(data []byte) (*CSR, []float64) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(int8(data[0]))
		data = data[1:]
		return b
	}
	a := &CSR{Rows: next() % 9, Cols: next() % 9}
	a.RowPtr = make([]int64, max(0, a.Rows+1+next()%2))
	for i := range a.RowPtr {
		if i > 0 {
			a.RowPtr[i] = a.RowPtr[i-1]
		}
		a.RowPtr[i] += int64(next() % 4)
	}
	nnz := int64(0)
	if n := len(a.RowPtr); n > 0 {
		nnz = min(max(a.RowPtr[n-1], 0), 64)
	}
	ncol := max(0, int(nnz)+next()%2)
	a.ColIdx = make([]int32, ncol)
	a.Val = make([]float64, max(0, ncol+next()%2))
	for k := range a.ColIdx {
		a.ColIdx[k] = int32(next() % 12)
	}
	value := func() float64 {
		b := next()
		if b < -100 {
			return oddValues[(-b)%len(oddValues)]
		}
		return float64(b) / 4
	}
	for k := range a.Val {
		a.Val[k] = value()
	}
	n := a.Cols
	if next() == 1 {
		n--
	}
	v := make([]float64, max(0, n))
	for j := range v {
		v[j] = value()
	}
	return a, v
}

// fuzzBytes encodes a matrix with every invariant intact in fuzzCSR's
// format, for the seed corpus.
func fuzzBytes(a *CSR) []byte {
	b := []byte{byte(a.Rows), byte(a.Cols), 0, 0}
	for i := 1; i < len(a.RowPtr); i++ {
		b = append(b, byte(a.RowPtr[i]-a.RowPtr[i-1]))
	}
	b = append(b, 0, 0)
	for _, c := range a.ColIdx {
		b = append(b, byte(c))
	}
	for _, x := range a.Val {
		b = append(b, byte(int8(x*4)))
	}
	b = append(b, 0) // full-length vector
	for j := 0; j < a.Cols; j++ {
		b = append(b, byte(4*(j+1)))
	}
	return b
}

// checkMulVecsAgainstValidate holds MulVecsChecked at width nb to
// checkAgainstValidate's specification, with rotations of v as the vectors.
func checkMulVecsAgainstValidate(t *testing.T, a *CSR, v []float64, rows, nb int) {
	t.Helper()
	want := a.Validate()
	vs, us := make([][]float64, nb), make([][]float64, nb)
	for b := range vs {
		r := 0
		if len(v) > 0 {
			r = b % len(v)
		}
		vs[b] = append(append([]float64(nil), v[r:]...), v[:r]...)
		us[b] = make([]float64, rows)
	}
	var err error
	var scratch []float64
	panicked := func() (p bool) {
		defer func() { p = recover() != nil }()
		err = a.MulVecsChecked(vs, us, &scratch)
		return false
	}()
	switch {
	case want == nil && len(v) < a.Cols:
		if !panicked {
			t.Fatalf("B=%d: valid matrix with len(v)=%d < Cols=%d did not panic", nb, len(v), a.Cols)
		}
		return
	case panicked:
		t.Fatalf("B=%d: MulVecsChecked panicked (Validate: %v)", nb, want)
	case (err == nil) != (want == nil) || err != nil && err.Error() != want.Error():
		t.Fatalf("B=%d: MulVecsChecked = %v, Validate = %v", nb, err, want)
	case err != nil:
		return
	}
	ref := make([]float64, rows)
	for b := range vs {
		a.MulVec(vs[b], ref)
		for i := range ref {
			if math.Float64bits(us[b][i]) != math.Float64bits(ref[i]) {
				t.Fatalf("B=%d: vector %d row %d: MulVecsChecked %v, MulVec %v", nb, b, i, us[b][i], ref[i])
			}
		}
	}
}

// FuzzMulVecChecked: on any decoded CSR, MulVecChecked and MulVecsChecked
// at B = 1, 3 and 8 never panic (short vector on a valid matrix excepted, as
// in MulVec), return exactly Validate's error, and on a valid matrix
// reproduce MulVec's bits.
func FuzzMulVecChecked(f *testing.F) {
	f.Add([]byte{})
	f.Add(fuzzBytes(Figure1()))
	f.Add(fuzzBytes(&CSR{Rows: 3, Cols: 2, RowPtr: []int64{0, 0, 3, 3}, ColIdx: []int32{0, 1, 1}, Val: []float64{1, 2, 3}}))
	f.Add([]byte{4, 4, 0, 1, 2, 1, 3, 0, 0, 0, 1, 0, 2, 1, 1, 2, 3, 4, 4, 8, 4, 4, 4, 4, 4, 4, 4, 0})
	f.Add([]byte{2, 3, 1, 0, 1, 255, 0, 1, 7, 8, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, v := fuzzCSR(data)
		checkAgainstValidate(t, "fuzz", a, v, max(a.Rows, 0))
		for _, nb := range []int{1, 3, 8} {
			checkMulVecsAgainstValidate(t, a, v, max(a.Rows, 0), nb)
		}
	})
}

// BenchmarkMulVecChecked compares the fused walk with the two walks it
// replaces on a 14400-row matrix of up to 10 non-zeros a row.
func BenchmarkMulVecChecked(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	a := randomCSR(rng, 14400, 14400, 10)
	v, u := vecFor(rng, a.Cols), make([]float64, a.Rows)
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := a.MulVecChecked(v, u); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("validate+mulvec", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := a.Validate(); err != nil {
				b.Fatal(err)
			}
			a.MulVec(v, u)
		}
	})
}
