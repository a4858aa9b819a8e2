package kernels

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"spmvtune/internal/binning"
	"spmvtune/internal/hsa"
	"spmvtune/internal/matgen"
	"spmvtune/internal/sparse"
)

// walkerGoldenDigests pins the complete modeled behaviour of every point of
// the synthesized space, one digest per point keyed by its name: device
// stats, performance counters and every output bit, across matrices,
// devices and launch widths (see the test below). The rows were printed by
// this test on the last commit whose space still held 36 points, and a
// point's row may only be removed with the point. Any change to how a
// launch of any width charges the device or accumulates its sums moves a
// row.
var walkerGoldenDigests = [][2]string{
	{"serial", "cf338e193cc8dca4f8a04d05425ef0e2afde3bb4c2b51ac40a493a6d63d1ef29"},
	{"subvector128", "db5a6abe11e6130531eda688d340aa23b970b488c7cd96b71250f6b12a566b75"},
	{"subvector16", "29f0f3b3e85174c234f544311d1d8eb088fca8a72ec1337175d46725f5d8fcd9"},
	{"subvector2", "10dd804d9ad18602845f5c951125e077f9b0654f9e223fa579e8332071b45552"},
	{"subvector32", "9c5b2cad56a5b3c532188f9c3553d9e203a35e332db20e559f0ba319b37054c0"},
	{"subvector4", "19728c01534b71d30d342d586b71dfac9a52f52f15389c95fcc8aa46389822eb"},
	{"subvector64", "50fa77d8082bd8790f4b0ef69d2962c9788f068a58860cdf382190b982da1dd2"},
	{"subvector8", "3cd43d5a7abe8b9759260ab876a3f81ec1bd2e64bad3f1d34665c0cb7f83589f"},
	{"synth.t128.rd.f8.tree", "c9acf1dcc192d235c5db61f0aec2d1086045a9854f55f094c31cb8410c80124f"},
	{"synth.t16.rd.f16.tree", "b79f18e1b44a788893737f2e1125fa69a2d386c44e212c5b0c4f42907e654be8"},
	{"synth.t16.rd.f8.tree", "be31256988ef4413e64c067a3f08f994fd5c54d8a1095996d4e6a940445632c1"},
	{"synth.t16.rd.wf", "a10ef56dee97b0fe12c3db8751785ee5217f2a0796f0a5e646961af29ac5f688"},
	{"synth.t2.rd.wf", "13275df71a398fbe350cfd45f59ac20d972c8aff8b0b77db053c9257dbf74c56"},
	{"synth.t32.rd.wf", "553906e6fd2c1d2ceb7d85d412ca3cf5860e55e8befcc1ffd8c0d799021e6592"},
	{"synth.t4.rd.f16.tree", "d054980973d299b057aa70b727a9aa58c1da3e93c5e3bc9c3c3ddcc056f86484"},
	{"synth.t4.rd.wf", "2d334d55bea2d91d30a70ea646ee31ae7c7c7a817e1285936540befd548981c9"},
	{"synth.t64.rd.wf", "1ef97d3427b696bcb9012aa3199cf3f2a15720c7ff9bb2c481ad2de4add032fd"},
	{"synth.t8.rd.f16.tree", "599b43b8b014e15747cd41b9d3a7dcb41485a80e276376b768e52ea40bddc4e4"},
	{"synth.t8.rd.f8.tree", "39c4913bd47a4acb54f5aabdd39e162538a541258c615d6eb3a792322ea435b9"},
	{"synth.t8.rd.wf", "d7b81f8248d9217f023dc5c7f34f79860cd77ffdb7555b3b60f2a613bee1fa4a"},
	{"vector", "352e5a99aa7f4eb52bc1031bc45403e9276c1991f72c690297a5eced4c8fe399"},
}

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

	type launchInput struct {
		a      *sparse.CSR
		vs, us [][]float64
	}
	var inputs []launchInput
	for _, a := range mats {
		for _, nb := range []int{1, 3, 8} {
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
	var buf [8]byte
	for _, info := range SynthSpace().Infos {
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
				info.Kernel.Run(run, NewBatchInput(run, li.a, li.vs, li.us), groups)
				digestFields(t, h, run.Stats())
				ctr, _ := run.Counters()
				digestFields(t, h, ctr)
				for b := range li.us {
					for _, x := range li.us[b] {
						binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
						h.Write(buf[:])
					}
				}
			}
		}
		got[info.Name] = hex.EncodeToString(h.Sum(nil))
	}
	checkDigests(t, "walkerGoldenDigests", got, walkerGoldenDigests)
}

// checkDigests fails unless got holds exactly the keys of the rows of want,
// each with its row's digest, and then prints the rows got spells, in key
// order. The rows are pairs rather than a map literal so that gofmt never
// realigns the other rows when one is removed.
func checkDigests(t *testing.T, name string, got map[string]string, want [][2]string) {
	t.Helper()
	rows := map[string]string{}
	for _, r := range want {
		rows[r[0]] = r[1]
	}
	for k, g := range got {
		if w, ok := rows[k]; !ok {
			t.Errorf("%s: %s has no row (digest %s)", name, k, g)
		} else if g != w {
			t.Errorf("%s: %s = %s, want %s", name, k, g, w)
		}
	}
	for k := range rows {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: row %s names no launch of the test", name, k)
		}
	}
	if t.Failed() {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		var sb strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&sb, "\t{%q, %q},\n", k, got[k])
		}
		t.Logf("%s as computed:\n%s", name, sb.String())
	}
}
