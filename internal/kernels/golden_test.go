package kernels

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"spmvtune/internal/binning"
	"spmvtune/internal/hsa"
	"spmvtune/internal/matgen"
	"spmvtune/internal/sparse"
)

// walkerGoldenDigest pins the complete modeled behaviour of every kernel in
// the synthesized space: device stats, performance counters and every output
// bit, across matrices, devices and launch widths (see the test below). It
// was produced by running this file, as is, against the last commit that
// still carried the nine per-family walker bodies (pool, synthesized and
// batched) and pasting the digest the failure message printed; the walkers
// were collapsed afterwards with the constant untouched. Any change to how a
// launch of any width charges the device or accumulates its sums moves it.
const walkerGoldenDigest = "22049d19b7932affb02eac2d9a4105df5ec031a435c96066c5cda767d483a61a"

// digestFields feeds every numeric field of a flat struct (hsa.Stats,
// hsa.Counters) to h as IEEE-754 bits, in declaration order.
func digestFields(t *testing.T, h hash.Hash, s any) {
	t.Helper()
	v := reflect.ValueOf(s)
	var buf [8]byte
	for i := 0; i < v.NumField(); i++ {
		var x float64
		switch f := v.Field(i); f.Kind() {
		case reflect.Float64:
			x = f.Float()
		case reflect.Int, reflect.Int64:
			x = float64(f.Int())
		default:
			t.Fatalf("digest: unsupported field %s.%s", v.Type(), v.Type().Field(i).Name)
		}
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
}

// goldenLaunch executes one launch of the bound width. The commit the digest
// was generated on served widths above one through a separate RunBatch
// method; probing for it lets this file run unmodified on both sides of the
// walker collapse, which is the point of the constant.
func goldenLaunch(k Kernel, run *hsa.Run, in *Input, groups []binning.Group) {
	if bk, ok := any(k).(interface {
		RunBatch(*hsa.Run, *Input, []binning.Group)
	}); ok {
		bk.RunBatch(run, in, groups)
		return
	}
	k.Run(run, in, groups)
}

func TestWalkerGoldenDigest(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine and deterministic: the race detector finds nothing here and makes it 20x slower")
	}
	mats := []*sparse.CSR{
		sparse.Figure1(),
		matgen.Banded(300, 7, 1),
		matgen.PowerLaw(1250, 4, 1.8, 700, 3),
		matgen.Mixed(777, 777, 10, []int{1, 40, 3, 300}, 7),
		matgen.BlockFEM(50, 300, 50, 8),
	}
	wf32 := hsa.DefaultConfig()
	wf32.WavefrontSize = 32
	oneCU := hsa.DefaultConfig()
	oneCU.NumCUs = 1
	devs := []hsa.Config{hsa.DefaultConfig(), hsa.SmallConfig(), wf32, oneCU}

	h := sha256.New()
	var buf [8]byte
	for _, a := range mats {
		groups := binning.Single(a).Bins[0]
		for _, nb := range []int{1, 3, 8} {
			rng := rand.New(rand.NewSource(int64(41 + nb)))
			vs := make([][]float64, nb)
			us := make([][]float64, nb)
			for b := range vs {
				vs[b] = make([]float64, a.Cols)
				for i := range vs[b] {
					vs[b][i] = rng.NormFloat64()
				}
				us[b] = make([]float64, a.Rows)
			}
			for _, dev := range devs {
				for _, info := range SynthSpace().Infos {
					for b := range us {
						for i := range us[b] {
							us[b][i] = math.NaN() // every row must be written
						}
					}
					run := hsa.NewRun(dev)
					run.EnableCounters()
					in := NewBatchInput(run, a, vs, us)
					goldenLaunch(info.Kernel, run, in, groups)
					digestFields(t, h, run.Stats())
					ctr, _ := run.Counters()
					digestFields(t, h, ctr)
					for b := range us {
						for _, x := range us[b] {
							binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
							h.Write(buf[:])
						}
					}
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != walkerGoldenDigest {
		t.Fatalf("walker golden digest = %s, want %s", got, walkerGoldenDigest)
	}
}
