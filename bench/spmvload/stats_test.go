package main

import (
	"math"
	"sort"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {0.2, 10}, {0.21, 20}, {0.5, 30}, {0.95, 50}, {1, 50},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if xs[0] != 50 {
		t.Error("percentile sorted its argument in place")
	}
}

func TestMedianAndBeyond(t *testing.T) {
	if got := median([]float64{4, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	// 250 samples: p95 is the 238th, leaving 12 beyond it; 100 leave 5.
	if got := beyond(250, 0.95); got != 12 {
		t.Errorf("beyond(250, .95) = %d, want 12", got)
	}
	if got := beyond(100, 0.95); got != 5 {
		t.Errorf("beyond(100, .95) = %d, want 5", got)
	}
}

// The expected values are statistics.quantiles(v, n=4) and
// statistics.median(v) from CPython.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 1.0},
		{[]float64{3.1, 2.9, 3.0, 3.3, 2.8}, (3.2 - 2.85) / 3.0},
		{[]float64{5, 1}, 2.0}, // both quartiles extrapolate
	} {
		if got := quartileSpread(c.v); !near(got, c.want) {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestSlicesAndWindow(t *testing.T) {
	ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
	op := func(due, done int) sample { return sample{due: ms(due), sent: ms(due), done: ms(done), ok: true} }
	// Three slices of a second each. Slices 0 and 2: three ops of 100 ms
	// finishing 400 ms apart. Slice 1: a noisy phase, two ops of 900 ms.
	// A failed op counts for nothing.
	quiet := pass{elapsed: time.Second, samples: []sample{op(0, 100), op(400, 500), {due: ms(500), done: ms(600)}, op(800, 900)}}
	noisy := pass{elapsed: 2 * time.Second, samples: []sample{op(0, 900), op(50, 950)}}

	// A closed loop: completions over the slice's whole length, so the dead
	// time of the noisy slice counts against it.
	s0, ok0 := sliceOf(quiet, 30, false)
	s1, ok1 := sliceOf(noisy, 200, false)
	if !ok0 || !near(s0.opsPerS, 3) || !near(s0.p50Ms, 100) || !near(s0.cpuMsPer, 10) || len(s0.lat) != 3 {
		t.Errorf("quiet slice = %+v", s0)
	}
	if !ok1 || !near(s1.opsPerS, 1) || !near(s1.p50Ms, 900) || !near(s1.cpuMsPer, 100) {
		t.Errorf("noisy slice = %+v", s1)
	}
	// An open loop: k−1 intervals over the time between the slice's first
	// and last completion.
	if o0, _ := sliceOf(quiet, 30, true); !near(o0.opsPerS, 2/0.8) {
		t.Errorf("open-loop rate = %v, want 2.5", o0.opsPerS)
	}
	if o1, _ := sliceOf(noisy, 200, true); !near(o1.opsPerS, 1/0.05) {
		t.Errorf("open-loop rate = %v, want 20", o1.opsPerS)
	}
	// A slice in which nothing was verified has no latency and no cost.
	if _, ok := sliceOf(pass{elapsed: time.Second, samples: []sample{{done: ms(10)}}}, 5, false); ok {
		t.Error("a slice without a verified op was kept")
	}

	// The medians shrug the noisy slice off; the tail is over every op.
	ops, p50, cpuPer, lat := windowOf([]sliceStats{s0, s1, s0})
	if !near(ops, 3) || !near(p50, 100) || !near(cpuPer, 10) {
		t.Errorf("medians = %v ops/s, %v ms, %v cpu ms/op; want 3, 100, 10", ops, p50, cpuPer)
	}
	if len(lat) != 8 || percentile(lat, 0.95) != 900 {
		t.Errorf("window latencies = %v, want the 8 verified ops", lat)
	}
}

// A slice on a host at half speed took twice as long for the same work:
// restated, it agrees with the same slice on a host at nominal speed.
func TestRestatingAtNominalSpeed(t *testing.T) {
	if got := speedOf(2 * nominalRefMs); !near(got, 0.5) {
		t.Errorf("speedOf(twice the nominal time) = %v, want 0.5", got)
	}
	fast := sliceStats{opsPerS: 40, p50Ms: 40, cpuMsPer: 20, lat: []float64{40, 60}}
	slow := sliceStats{opsPerS: 20, p50Ms: 80, cpuMsPer: 40, lat: []float64{80, 120}}
	got := slow.atSpeed(0.5, false)
	if !near(got.opsPerS, fast.opsPerS) || !near(got.p50Ms, fast.p50Ms) || !near(got.cpuMsPer, fast.cpuMsPer) || !near(got.lat[1], fast.lat[1]) {
		t.Errorf("slow slice restated = %+v, want %+v", got, fast)
	}
	if slow.lat[1] != 120 {
		t.Error("restating changed the slice it was given")
	}
	// An open loop's completion rate is the schedule's, whatever the host.
	if got := slow.atSpeed(0.5, true); got.opsPerS != 20 || !near(got.p50Ms, 40) {
		t.Errorf("open-loop slice restated = %+v", got)
	}
}

// The reference kernel ticks beside what it is given to run, for as long as
// that runs, and does the same work on every tick.
func TestHostRefTicksBesideTheLoad(t *testing.T) {
	h := newHostRef()
	ran := false
	ms := h.beside(func() { time.Sleep(3 * refEvery / 2); ran = true })
	if !ran || ms <= 0 || ms > 50 {
		t.Errorf("ran %v, reference kernel = %v ms", ran, ms)
	}
	if len(h.dec) != 2000 || !sort.Float64sAreSorted(h.dec) {
		t.Errorf("the kernel left %d values, sorted %v; want 2000, sorted", len(h.dec), sort.Float64sAreSorted(h.dec))
	}
	if ms := h.beside(func() {}); ms <= 0 {
		t.Errorf("beside nothing at all: %v ms, want the one run at the start", ms)
	}
}

func TestHostStateMarksAWindowNonComparable(t *testing.T) {
	before, after := hostClock{total: 1000, steal: 50}, hostClock{total: 1400, steal: 90}
	if got := after.stealSince(before); !near(got, 0.1) {
		t.Errorf("stealSince = %v, want 0.1", got)
	}
	if got := before.stealSince(before); got != 0 {
		t.Errorf("stealSince over no time = %v, want 0", got)
	}
	if n := (hostState{stealShare: 0.004}).notes(); len(n) != 0 {
		t.Errorf("a quiet host: notes %q", n)
	}
	if n := (hostState{stealShare: 0.1}).notes(); len(n) != 1 || !strings.HasPrefix(n[0], "NON-COMPARABLE") {
		t.Errorf("a tenth stolen: notes %q, want one NON-COMPARABLE", n)
	}
}

func TestParseHostClock(t *testing.T) {
	got, err := parseHostClock([]byte("cpu  4594964 6738 320981 4196127 9752 0 67642 93831 0 0\ncpu0 1 2 3\n"))
	want := hostClock{total: 4594964 + 6738 + 320981 + 4196127 + 9752 + 0 + 67642 + 93831, steal: 93831}
	if err != nil || got != want {
		t.Errorf("parseHostClock = %+v, %v; want %+v", got, err, want)
	}
	if got, err := parseHostClock([]byte("cpu 1 2 3 4 5 6 7\n")); err != nil || got.steal != 0 || got.total != 1+2+3+4+5+6+7 {
		t.Errorf("no steal column: %+v, %v", got, err)
	}
	if _, err := parseHostClock([]byte("intr 1 2 3")); err == nil {
		t.Error("a line that is not the cpu line parsed")
	}
}

func TestCPUInfoFlag(t *testing.T) {
	cpuinfo := []byte("processor\t: 0\nmodel name\t: x\nflags\t\t: fpu vme hypervisor_x hypervisor lahf_lm\n\nprocessor\t: 1\n")
	if !cpuinfoHasFlag(cpuinfo, "hypervisor") {
		t.Error("the hypervisor flag was not found")
	}
	if cpuinfoHasFlag(cpuinfo, "vm") || cpuinfoHasFlag([]byte("model name : hypervisor\n"), "hypervisor") {
		t.Error("a flag was found that the flags line does not list")
	}
}
