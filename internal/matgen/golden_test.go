package matgen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"testing"
)

// corpusDigest hashes every member's Name, Family, RowPtr, ColIdx and Val
// in corpus order, little-endian, each field length-prefixed.
func corpusDigest(c []CorpusMatrix) string {
	h := sha256.New()
	word := func(x uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	for _, m := range c {
		for _, s := range []string{m.Name, m.Family} {
			word(uint64(len(s)))
			h.Write([]byte(s))
		}
		word(uint64(len(m.A.RowPtr)))
		for _, p := range m.A.RowPtr {
			word(uint64(p))
		}
		word(uint64(len(m.A.ColIdx)))
		for _, c := range m.A.ColIdx {
			word(uint64(c))
		}
		word(uint64(len(m.A.Val)))
		for _, v := range m.A.Val {
			word(math.Float64bits(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCorpusDigestGolden pins three corpora byte for byte: spmvd's
// bootstrap corpus, the retrain gate's default holdout and TestCorpus's.
// Corpus output is the input of every label and model version, so a change
// to how it is built must not move a bit. Never regenerate the constants.
func TestCorpusDigestGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts CorpusOptions
		want string
	}{
		{"bootstrap", CorpusOptions{N: 24, MinRows: 256, MaxRows: 2048, Seed: 42}, "6297d1dd1dd1af31838cdf8cb187761b581e782328dc0f46dc1b13f80f573275"},
		{"holdout", CorpusOptions{N: 8, MinRows: 200, MaxRows: 900, Seed: 7}, "a7582fc57b80086ace6fa4557b01527b2e9495171d72307ef334a6b6b45d1daf"},
		{"testcorpus", CorpusOptions{N: 30, MinRows: 128, MaxRows: 512, Seed: 1}, "45bb21eb4c34844d36f9a59b9b6c0c458dc73da4767460e5ad7da2190ee14a74"},
	} {
		if got := corpusDigest(Corpus(tc.opts)); got != tc.want {
			t.Errorf("%s corpus digest %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestValueFreeCorpusMatchesCorpus: for the three corpora
// TestCorpusDigestGolden pins, ValueFreeCorpus returns Corpus's members
// with the same Name, Family, shape, RowPtr and ColIdx, and no values.
func TestValueFreeCorpusMatchesCorpus(t *testing.T) {
	for _, opts := range []CorpusOptions{
		{N: 24, MinRows: 256, MaxRows: 2048, Seed: 42},
		{N: 8, MinRows: 200, MaxRows: 900, Seed: 7},
		{N: 30, MinRows: 128, MaxRows: 512, Seed: 1},
	} {
		want, got := Corpus(opts), ValueFreeCorpus(opts)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d members, Corpus has %d", opts.Seed, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Family != w.Family || g.A.Rows != w.A.Rows || g.A.Cols != w.A.Cols ||
				!slices.Equal(g.A.RowPtr, w.A.RowPtr) || !slices.Equal(g.A.ColIdx, w.A.ColIdx) {
				t.Errorf("seed %d member %d (%s): structure differs from Corpus's %s", opts.Seed, i, g.Name, w.Name)
			}
			if g.A.Val != nil {
				t.Errorf("seed %d member %d (%s): %d values, want nil", opts.Seed, i, g.Name, len(g.A.Val))
			}
		}
	}
}
