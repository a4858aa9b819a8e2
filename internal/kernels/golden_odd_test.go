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

// oddDevicesGoldenDigest is TestWalkerGoldenDigest's recipe over the device
// shapes its four devices never reach — segment sizes that are not a power
// of two, a cache of a single set, 16-lane wavefronts — plus the two Gather
// callers outside this package (CSR-Adaptive's stream blocks and the
// ELL/COO format kernels), whose address lists the walkers never build. It
// was printed by this file on the commit before the simulator's segment
// dedup and lane addressing were rewritten, and has not been edited since.
const oddDevicesGoldenDigest = "dc599545a3bc016a2d4cb9cd7a44cf008db3f14fc17773cc942c2ac6419ca6a9"

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

	h := sha256.New()
	for _, a := range mats {
		groups := binning.Single(a).Bins[0]
		for _, nb := range []int{1, 3} {
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
				for pi, info := range kernels.SynthSpace().Infos {
					if pi%4 != 0 {
						continue
					}
					for b := range us {
						for i := range us[b] {
							us[b][i] = math.NaN() // every row must be written
						}
					}
					run := hsa.NewRun(dev)
					run.EnableCounters()
					in := kernels.NewBatchInput(run, a, vs, us)
					info.Kernel.Run(run, in, groups)
					kernels.DigestFields(t, h, run.Stats())
					ctr, _ := run.Counters()
					kernels.DigestFields(t, h, ctr)
					for b := range us {
						digestVector(h, us[b])
					}
				}
			}
		}
		// The Gather callers outside the walkers: CSR-Adaptive gathers v for
		// a stream block's strided chunks (rows past 256 non-zeros take its
		// whole-work-group vector path), HYB for ELL slots (padding
		// skipped) and for COO triplets with one u address per distinct row.
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
			kernels.DigestFields(t, h, run.Stats())
			ctr, _ := run.Counters()
			kernels.DigestFields(t, h, ctr)
			digestVector(h, u)

			kernels.DigestFields(t, h, formats.HYBFromCSR(a, 6).SimulateMulVec(dev, v, u))
			digestVector(h, u)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != oddDevicesGoldenDigest {
		t.Fatalf("odd-devices golden digest = %s, want %s", got, oddDevicesGoldenDigest)
	}
}
