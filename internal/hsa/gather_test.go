package hsa

import (
	"math/rand"
	"slices"
	"testing"
)

// referenceSegments is the segment dedup Gather ran before it was made
// linear, moved here verbatim: quadratic in the lane count, one division per
// lane, and by construction the definition of first-occurrence order.
func referenceSegments(cfg Config, reg Region, idx []int64) []int64 {
	var segs []int64
	seg := cfg.SegmentBytes
	for _, i := range idx {
		s := (reg.base + i*reg.elemSize) / seg
		dup := false
		for _, e := range segs {
			if e == s {
				dup = true
				break
			}
		}
		if !dup {
			segs = append(segs, s)
		}
	}
	return segs
}

// referenceGather charges a Gather the way the old one did, through the
// modulo-only tag lookup access used to be.
func referenceGather(a *WFAcc, reg Region, idx []int64) {
	if len(idx) == 0 {
		return
	}
	r := a.run
	if ctr := r.ctr; ctr != nil {
		ctr.recordMem(int64(len(idx)), r.cfg.WavefrontSize)
	}
	cost := 0.0
	for _, seg := range referenceSegments(r.cfg, reg, idx) {
		slot := seg % int64(len(r.cache))
		if slot < 0 {
			slot = -slot
		}
		r.stats.Transactions++
		if r.cache[slot] == seg+1 {
			r.stats.CacheHits++
			cost += r.cfg.TxHitCycles
			continue
		}
		r.cache[slot] = seg + 1
		r.stats.CacheMisses++
		r.stats.DRAMBytes += r.cfg.SegmentBytes
		cost += r.cfg.TxMissCycles
	}
	r.stats.CyclesMem += cost
	a.add(cost)
}

// gatherList draws one address list of the given kind over a region of
// count elements.
func gatherList(rng *rand.Rand, kind int, count int64, wf int) []int64 {
	var idx []int64
	switch kind {
	case 0: // empty
	case 1: // one lane
		idx = []int64{rng.Int63n(count)}
	case 2: // every lane on one element
		idx = make([]int64, wf)
		for l, e := 0, rng.Int63n(count); l < wf; l++ {
			idx[l] = e
		}
	case 3: // ascending runs, as the walkers' lock-step loads build them
		for e := rng.Int63n(count); len(idx) < wf && e < count; e += rng.Int63n(40) {
			for n := 1 + rng.Intn(17); n > 0 && len(idx) < wf && e < count; n-- {
				idx = append(idx, e)
				e++
			}
		}
	case 4: // random scatter
		for n := 1 + rng.Intn(wf); n > 0; n-- {
			idx = append(idx, rng.Int63n(count))
		}
	case 5: // longer than a wavefront, scatter and short runs mixed
		for n := wf + 1 + rng.Intn(4*wf); n > 0; n-- {
			if len(idx) > 0 && rng.Intn(3) > 0 {
				idx = append(idx, min(idx[len(idx)-1]+1, count-1))
			} else {
				idx = append(idx, rng.Int63n(count))
			}
		}
	case 6: // around the region's last element
		for n := 1 + rng.Intn(wf); n > 0; n-- {
			idx = append(idx, count-1-rng.Int63n(min(count, 12)))
		}
		idx = append(idx, count-1)
	case 7: // a few segments revisited out of order: a, b, a, c, b, ...
		base := rng.Int63n(count)
		for n := 2 + rng.Intn(wf); n > 0; n-- {
			idx = append(idx, min(base+rng.Int63n(4)*24, count-1))
		}
	case 8: // indices no region covers, below zero and past the last Alloc
		for n := 1 + rng.Intn(wf); n > 0; n-- {
			switch rng.Intn(3) {
			case 0:
				idx = append(idx, -1-rng.Int63n(1<<20))
			case 1:
				idx = append(idx, 1<<22+rng.Int63n(1<<20))
			default:
				idx = append(idx, rng.Int63n(count))
			}
		}
	}
	return idx
}

const gatherListKinds = 9

// gatherPair is the accountant under test and the reference one beside it,
// holding the same regions.
type gatherPair struct {
	got, ref *Run
	regs     []Region
	counts   []int64
}

func newGatherPair(got *Run) *gatherPair {
	p := &gatherPair{got: got, ref: NewRun(got.cfg)}
	p.got.EnableCounters()
	p.ref.EnableCounters()
	for _, shape := range [][2]int64{{8, 1000}, {4, 50000}, {8, 50000}, {8, 3}, {4, 7777}} {
		reg := p.got.Alloc(shape[0], shape[1])
		if p.ref.Alloc(shape[0], shape[1]) != reg {
			panic("allocators diverged")
		}
		p.regs = append(p.regs, reg)
		p.counts = append(p.counts, shape[1])
	}
	return p
}

// drive charges n seeded lists, interleaved over the regions, through both
// accountants and compares them after every instruction.
func (p *gatherPair) drive(t *testing.T, rng *rand.Rand, n int) {
	t.Helper()
	got, ref := p.got, p.ref
	for i := 0; i < n; {
		gg, rg := got.BeginWG(), ref.BeginWG()
		for wf := 1 + rng.Intn(4); wf > 0; wf-- {
			ga, ra := gg.WF(), rg.WF()
			for k := rng.Intn(12); k > 0 && i < n; k-- {
				ri := rng.Intn(len(p.regs))
				kind := i % gatherListKinds
				idx := gatherList(rng, kind, p.counts[ri], got.cfg.WavefrontSize)
				want := referenceSegments(ref.cfg, p.regs[ri], idx)
				before := got.stats.Transactions
				ga.Gather(p.regs[ri], idx)
				referenceGather(ra, p.regs[ri], idx)
				i++
				// The charged segments are still in the scratch's backing array.
				if emitted := got.segScratch[:got.stats.Transactions-before]; !slices.Equal(emitted, want) {
					t.Fatalf("list %d (kind %d, region %d) %v:\n charged segments %v\n want            %v", i, kind, ri, idx, emitted, want)
				}
				if got.stats != ref.stats {
					t.Fatalf("list %d (kind %d): stats %+v, want %+v", i, kind, got.stats, ref.stats)
				}
				if *got.ctr != *ref.ctr {
					t.Fatalf("list %d (kind %d): counters %+v, want %+v", i, kind, *got.ctr, *ref.ctr)
				}
				if w := slices.IndexFunc(got.segSeen, func(x uint64) bool { return x != 0 }); w >= 0 {
					t.Fatalf("list %d (kind %d): scratch word %d left dirty (%#x)", i, kind, w, got.segSeen[w])
				}
			}
		}
		gg.End()
		rg.End()
	}
	if g, r := got.Stats(), ref.Stats(); g != r {
		t.Fatalf("final stats %+v, want %+v", g, r)
	}
}

// TestGatherMatchesReference drives 10 000 seeded address lists through the
// linear Gather and the quadratic reference: same segments in the same
// order, the same Stats and Counters bits after every instruction, and a
// scratch that is all-zero between calls — on power-of-two and odd segment
// sizes, a one-set cache, and a pooled Run reused after a launch was aborted
// with its scratch dirty.
func TestGatherMatchesReference(t *testing.T) {
	seg48 := DefaultConfig()
	seg48.SegmentBytes = 48
	seg96 := SmallConfig()
	seg96.SegmentBytes = 96
	oneSet := DefaultConfig()
	oneSet.CacheBytes = oneSet.SegmentBytes
	for ci, cfg := range []Config{DefaultConfig(), SmallConfig(), seg48, seg96, oneSet} {
		rng := rand.New(rand.NewSource(int64(100 + ci)))
		p := newGatherPair(AcquireRun(cfg))
		p.drive(t, rng, 1000)

		// Abort the launch the way a cycle-budget fault does, leave the
		// scratch as an instruction cut short would, and reuse the Run as
		// AcquireRun reuses a pooled one (reset is all it does to it; going
		// through the pool itself would not promise this Run back).
		r := p.got
		r.InjectFaults(&FaultState{cycleBudget: 1})
		recoverFault(t, func() {
			g := r.BeginWG()
			g.WF().Gather(p.regs[1], []int64{0, 100, 200})
			g.End()
		})
		for w := range r.segSeen {
			r.segSeen[w] = ^uint64(0)
		}
		r.reset(cfg)
		p = newGatherPair(r)
		p.drive(t, rng, 1000)
		p.got.Release()
	}
}

// runList draws one lane-run list of the given kind over a region of count
// elements, as GatherRuns takes it.
func runList(rng *rand.Rand, kind int, count int64, wf int) []LaneRun {
	var runs []LaneRun
	switch kind {
	case 0: // no lanes at all: no runs, or only empty ones
		for n := rng.Intn(4); n > 0; n-- {
			runs = append(runs, LaneRun{Start: rng.Int63n(count), Count: -rng.Int63n(2)})
		}
	case 1: // ascending row runs, as a cooperative lock-step load builds them
		for e := rng.Int63n(count); len(runs) < wf && e < count; e += rng.Int63n(60) {
			n := min(1+rng.Int63n(16), count-e)
			runs = append(runs, LaneRun{Start: e, Count: n})
			e += n
		}
	case 2: // long runs, each crossing several segment boundaries
		for n := 1 + rng.Intn(3); n > 0; n-- {
			e := rng.Int63n(count)
			runs = append(runs, LaneRun{Start: e, Count: min(1+rng.Int63n(int64(3*wf)), count-e)})
		}
	case 3: // later runs revisit segments earlier runs touched
		base := rng.Int63n(count)
		for n := 2 + rng.Intn(6); n > 0; n-- {
			e := min(base+rng.Int63n(48), count-1)
			runs = append(runs, LaneRun{Start: e, Count: min(1+rng.Int63n(24), count-e)})
		}
	case 4: // empty runs between live ones
		for n := 2 + rng.Intn(6); n > 0; n-- {
			e := rng.Int63n(count)
			c := min(rng.Int63n(9), count-e)
			if rng.Intn(2) == 0 {
				c = 0
			}
			runs = append(runs, LaneRun{Start: e, Count: c})
		}
	case 5: // indices no region covers: below zero, across zero, past the last Alloc
		for n := 1 + rng.Intn(5); n > 0; n-- {
			c := 1 + rng.Int63n(40)
			switch rng.Intn(4) {
			case 0:
				runs = append(runs, LaneRun{Start: -1 - rng.Int63n(1<<20), Count: c})
			case 1:
				runs = append(runs, LaneRun{Start: -rng.Int63n(c + 1), Count: c})
			case 2:
				runs = append(runs, LaneRun{Start: 1<<22 + rng.Int63n(1<<20), Count: c})
			default:
				e := rng.Int63n(count)
				runs = append(runs, LaneRun{Start: e, Count: min(c, count-e)})
			}
		}
	}
	return runs
}

const runListKinds = 6

// expandRuns lists the lanes of runs, run after run.
func expandRuns(runs []LaneRun) []int64 {
	var idx []int64
	for _, lr := range runs {
		for i := lr.Start; i < lr.Start+lr.Count; i++ {
			idx = append(idx, i)
		}
	}
	return idx
}

// TestGatherRunsMatchesLaneGather drives seeded lane-run lists through
// GatherRuns and the same lanes, expanded, through Gather: the same segments
// in the same order, the same Stats and Counters bits after every
// instruction, and a clean scratch between calls — on power-of-two and odd
// segment sizes, segments narrower than an element, and a one-set cache.
func TestGatherRunsMatchesLaneGather(t *testing.T) {
	seg48 := DefaultConfig()
	seg48.SegmentBytes = 48
	seg96 := SmallConfig()
	seg96.SegmentBytes = 96
	seg6 := DefaultConfig()
	seg6.SegmentBytes = 6
	seg4 := SmallConfig()
	seg4.SegmentBytes = 4
	oneSet := DefaultConfig()
	oneSet.CacheBytes = oneSet.SegmentBytes
	for ci, cfg := range []Config{DefaultConfig(), SmallConfig(), seg48, seg96, seg6, seg4, oneSet} {
		rng := rand.New(rand.NewSource(int64(200 + ci)))
		p := newGatherPair(AcquireRun(cfg))
		got, ref := p.got, p.ref
		for i := 0; i < 3000; {
			gg, rg := got.BeginWG(), ref.BeginWG()
			for wf := 1 + rng.Intn(4); wf > 0; wf-- {
				ga, ra := gg.WF(), rg.WF()
				for k := rng.Intn(12); k > 0 && i < 3000; k-- {
					ri := rng.Intn(len(p.regs))
					kind := i % runListKinds
					runs := runList(rng, kind, p.counts[ri], cfg.WavefrontSize)
					idx := expandRuns(runs)
					want := referenceSegments(cfg, p.regs[ri], idx)
					before := got.stats.Transactions
					ga.GatherRuns(p.regs[ri], runs)
					ra.Gather(p.regs[ri], idx)
					i++
					if emitted := got.segScratch[:got.stats.Transactions-before]; !slices.Equal(emitted, want) {
						t.Fatalf("device %d, list %d (kind %d, region %d) %v:\n charged segments %v\n want            %v", ci, i, kind, ri, runs, emitted, want)
					}
					if got.stats != ref.stats {
						t.Fatalf("device %d, list %d (kind %d): stats %+v, want %+v", ci, i, kind, got.stats, ref.stats)
					}
					if *got.ctr != *ref.ctr {
						t.Fatalf("device %d, list %d (kind %d): counters %+v, want %+v", ci, i, kind, *got.ctr, *ref.ctr)
					}
					if w := slices.IndexFunc(got.segSeen, func(x uint64) bool { return x != 0 }); w >= 0 {
						t.Fatalf("device %d, list %d (kind %d): scratch word %d left dirty (%#x)", ci, i, kind, w, got.segSeen[w])
					}
				}
			}
			gg.End()
			rg.End()
		}
		if g, r := got.Stats(), ref.Stats(); g != r {
			t.Fatalf("device %d: final stats %+v, want %+v", ci, g, r)
		}
		got.Release()
	}
}
