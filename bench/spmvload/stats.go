package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by the nearest-rank
// rule: the smallest value with at least q·n values at or below it. The
// rule never interpolates, so a reported p95 is a latency some op really
// had. An empty input reads 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the mean of the two middle values for an even count — the
// form statistics.median uses, so the numbers compare with the driver's.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// beyond counts the samples strictly above the q-quantile's rank — the
// guide's "at least ten samples beyond it" test for the highest percentile
// a window may report.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// quartileSpread is (Q3 − Q1) ÷ median with the quartiles Python's
// statistics.quantiles(values, n=4) computes (the "exclusive" method), so
// -spread prints the number the driver will compute from the same runs.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(m)
}

// sample is one op as the client saw it. Offsets are from the start of the
// pass (window, warm-up or traced slice) the op belongs to.
type sample struct {
	due  time.Duration // when the op should have been sent
	sent time.Duration // when it was sent
	done time.Duration // when its verified response was in hand
	ok   bool
}

func (s sample) latencyMs() float64 { return float64(s.done-s.due) / 1e6 }
func (s sample) lateMs() float64    { return float64(s.sent-s.due) / 1e6 }

// sliceStats is what one slice of the window contributes.
type sliceStats struct {
	opsPerS  float64   // verified ops completed per second
	p50Ms    float64   // their median latency
	cpuMsPer float64   // daemon CPU ms over the slice ÷ ops
	lat      []float64 // their latencies, for the whole window's tail
}

// sliceOf reduces one slice — a stretch of load with the daemon idle before
// and after it — to its numbers. cpuMs is the daemon CPU time the slice
// took. ok is false when no op was verified: such a slice has no latency
// and no cost.
//
// A closed loop's rate is completions over the slice's whole length, first
// send to last completion, so a stall counts wherever it falls. An open
// loop's completion rate is set by the schedule, and a count over a fixed
// length would move in steps of one op — 2 % of a 2 s slice at 25 ops/s —
// and mostly read the same figure: there it is k−1 intervals over the time
// between the slice's first and last completion.
func sliceOf(p pass, cpuMs float64, openLoop bool) (st sliceStats, ok bool) {
	var first, last time.Duration
	for _, s := range p.samples {
		if !s.ok {
			continue
		}
		if len(st.lat) == 0 || s.done < first {
			first = s.done
		}
		last = max(last, s.done)
		st.lat = append(st.lat, s.latencyMs())
	}
	k := len(st.lat)
	if k == 0 {
		return st, false
	}
	st.opsPerS = float64(k) / p.elapsed.Seconds()
	if span := last - first; openLoop && k > 1 && span > 0 {
		st.opsPerS = float64(k-1) / span.Seconds()
	}
	st.p50Ms = median(st.lat)
	st.cpuMsPer = cpuMs / float64(k)
	return st, true
}

// atSpeed restates the slice as a host of nominal speed would have run it:
// on a host at speed 0.8 everything took 1/0.8 as long. An open loop's rate
// is the schedule's whatever the host, and stays.
func (st sliceStats) atSpeed(speed float64, openLoop bool) sliceStats {
	out := sliceStats{opsPerS: st.opsPerS, p50Ms: st.p50Ms * speed, cpuMsPer: st.cpuMsPer * speed}
	if !openLoop {
		out.opsPerS /= speed
	}
	for _, l := range st.lat {
		out.lat = append(out.lat, l*speed)
	}
	return out
}

// windowOf reduces the slices to the window's metrics. Rate, median latency
// and cost are the median over the slices: a noisy-neighbour phase, a GC
// pause or a host hiccup shorter than two slices cannot move a median of
// five. The tail is taken over every op of the window: a slice holds too
// few ops for one.
func windowOf(sl []sliceStats) (opsPerS, p50Ms, cpuMsPer float64, lat []float64) {
	var a, b, c []float64
	for _, s := range sl {
		a = append(a, s.opsPerS)
		b = append(b, s.p50Ms)
		c = append(c, s.cpuMsPer)
		lat = append(lat, s.lat...)
	}
	return median(a), median(b), median(c), lat
}
