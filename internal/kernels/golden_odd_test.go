package kernels_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"testing"

	"spmvtune/internal/binning"
	"spmvtune/internal/csradaptive"
	"spmvtune/internal/formats"
	"spmvtune/internal/hsa"
	"spmvtune/internal/kernels"
	"spmvtune/internal/matgen"
	"spmvtune/internal/sparse"
)

// oddDevicesGoldenDigests is TestWalkerGoldenDigest's recipe over the
// device shapes its four devices never reach — segment sizes that are not a
// power of two, a cache of a single set, 16-lane wavefronts — one digest per
// point of the synthesized space, plus one each for the two Gather callers
// outside this package (CSR-Adaptive's stream blocks and the HYB format's
// ELL and COO kernels), whose address lists the walkers never build. The
// rows were printed by this test on the last commit whose space still held
// 36 points; a point's row may only be removed with the point.
var oddDevicesGoldenDigests = [][2]string{
	{"csr-adaptive", "e357f88bcce14436f88d81531b83ca7a6f7316f0ff93457aad18bcb99bace41c"},
	{"hyb", "03200605c70fde55438e2d7653919f9ffd31eefec1fb4f19844d478583c6b679"},
	{"serial", "828be79f101653dda53faf930e608fc2a815823aa4173d6279ff40426d29c08b"},
	{"subvector128", "81cb79a4291a478b081695ec8785dfdc2cd46ad7eda25d5898bc549114f78911"},
	{"subvector16", "1c9427b9cd4bcf8acdd6e24840fbb944597ec13d30a3567a076b4ffb2f7776e7"},
	{"subvector2", "1504ff1472e09b70f3179d4449a605416d22872acf70bc158b14035fdb6af990"},
	{"subvector32", "611dcd859da743f4d307c35592a25ff4812e70dcdfbf1788a76f710fb768ff7f"},
	{"subvector4", "9b6839a2530deb09a93132a3513d9ad809db575f977b1eead3962449651ef5ed"},
	{"subvector64", "b6f5098474886573c0f397b4ba13f0624cdfc4b1b16af304ed7f255d40085ebc"},
	{"subvector8", "067a29f28c72242146ec64006edd8290023f95356815a32aa60d8787b3315ee8"},
	{"synth.t128.rd.f8.tree", "b1c8dbcd3a28323c8cf65ea350194ae5a4ee87ff6caf0ad207873c71870d3ba2"},
	{"synth.t16.rd.f16.tree", "0f64d09ed5d044202036f4be1c9d1628d7b4f4484bd82d5cac0c9ca1cb40903a"},
	{"synth.t16.rd.f8.tree", "389714644e5c39cda39aef829bbbc2a1431882313de49328dbdf1778183d4fd4"},
	{"synth.t16.rd.wf", "f8d13af4df331315fef0490d6767561ab49692cf5704bbab98c4ed77517d495a"},
	{"synth.t2.rd.wf", "84e9a03bdecc4d2c19e049b27b10a020ef4baface82eb095d139ce348a1c1cf9"},
	{"synth.t32.rd.wf", "aadf7480c6d84b1ff61681fecad22118ade59caa519716b0ef409c16363955be"},
	{"synth.t4.rd.f16.tree", "a06b0cbc427d6e45394b5d1f3fae7e65f5cde3eb5faf162aae17a76edb57d544"},
	{"synth.t4.rd.wf", "cf1734dfcbd510f218d9aa8d02a4617e19fd21da83223faa3fc793f21fc4ef2e"},
	{"synth.t64.rd.wf", "acc0df5058885df8f1b06ebf29fbbcd090086265ba1e6e2d5a19760e01f5b569"},
	{"synth.t8.rd.f16.tree", "9c64379719d4e1c42017233f092ae3b338641ca55f30cc319c718891a92fec3f"},
	{"synth.t8.rd.f8.tree", "bafc1050517897821650ad9f19daa5818e0e188673a049177a59ea5bafec7859"},
	{"synth.t8.rd.wf", "d6dd156691dab89d68cb6a381f9b58d59c7e503df15d05ff7e913413baa2aae0"},
	{"vector", "aa241fc0cf04c634eff3c4cd498c42ada392cb0caff61cf5abdb743078682707"},
}

func digestVector(h hash.Hash, u []float64) {
	var buf [8]byte
	for _, x := range u {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
}

func TestSimulatorGoldenOddDevices(t *testing.T) {
	if kernels.RaceEnabled {
		t.Skip("single-goroutine and deterministic: the race detector finds nothing here")
	}
	mats := []*sparse.CSR{
		matgen.PowerLaw(1250, 4, 1.8, 700, 3),
		matgen.Mixed(777, 777, 10, []int{1, 40, 3, 300}, 7),
	}
	seg48 := hsa.DefaultConfig()
	seg48.SegmentBytes = 48
	seg96 := hsa.SmallConfig()
	seg96.SegmentBytes = 96
	oneSet := hsa.DefaultConfig()
	oneSet.CacheBytes = oneSet.SegmentBytes
	wf16 := hsa.DefaultConfig()
	wf16.WavefrontSize = 16
	devs := []hsa.Config{seg48, seg96, oneSet, wf16}

	type launchInput struct {
		a      *sparse.CSR
		vs, us [][]float64
	}
	var inputs []launchInput
	for _, a := range mats {
		for _, nb := range []int{1, 3} {
			rng := rand.New(rand.NewSource(int64(41 + nb)))
			in := launchInput{a: a, vs: make([][]float64, nb), us: make([][]float64, nb)}
			for b := range in.vs {
				in.vs[b] = make([]float64, a.Cols)
				for i := range in.vs[b] {
					in.vs[b][i] = rng.NormFloat64()
				}
				in.us[b] = make([]float64, a.Rows)
			}
			inputs = append(inputs, in)
		}
	}

	got := map[string]string{}
	for _, info := range kernels.SynthSpace().Infos {
		h := sha256.New()
		for _, li := range inputs {
			groups := binning.Single(li.a).Bins[0]
			for _, dev := range devs {
				for b := range li.us {
					for i := range li.us[b] {
						li.us[b][i] = math.NaN() // every row must be written
					}
				}
				run := hsa.NewRun(dev)
				run.EnableCounters()
				info.Kernel.Run(run, kernels.NewBatchInput(run, li.a, li.vs, li.us), groups)
				kernels.DigestFields(t, h, run.Stats())
				ctr, _ := run.Counters()
				kernels.DigestFields(t, h, ctr)
				for b := range li.us {
					digestVector(h, li.us[b])
				}
			}
		}
		got[info.Name] = hex.EncodeToString(h.Sum(nil))
	}

	// The Gather callers outside the walkers: CSR-Adaptive gathers v for a
	// stream block's strided chunks (rows past 256 non-zeros take its
	// whole-work-group vector path), HYB for ELL slots (padding skipped) and
	// for COO triplets with one u address per distinct row.
	adaptive, hyb := sha256.New(), sha256.New()
	for _, a := range mats {
		v := make([]float64, a.Cols)
		rng := rand.New(rand.NewSource(43))
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		u := make([]float64, a.Rows)
		for _, dev := range devs {
			run := hsa.NewRun(dev)
			run.EnableCounters()
			csradaptive.Run(run, kernels.NewInput(run, a, v, u), csradaptive.BuildBlocks(a, 256))
			kernels.DigestFields(t, adaptive, run.Stats())
			ctr, _ := run.Counters()
			kernels.DigestFields(t, adaptive, ctr)
			digestVector(adaptive, u)

			kernels.DigestFields(t, hyb, formats.HYBFromCSR(a, 6).SimulateMulVec(dev, v, u))
			digestVector(hyb, u)
		}
	}
	got["csr-adaptive"] = hex.EncodeToString(adaptive.Sum(nil))
	got["hyb"] = hex.EncodeToString(hyb.Sum(nil))
	kernels.CheckDigests(t, "oddDevicesGoldenDigests", got, oddDevicesGoldenDigests)
}
