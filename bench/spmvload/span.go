package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary, recorded by the generator
// around its own calls (spans inside the daemon are a later change). The
// spans of one op share a trace id; parent is the id of the span that
// caused this one, 0 for a root.
//
// Reenact marks a span that repeats, after the fact and in this process,
// work its parent did internally where the generator cannot see (the
// reference product inside core.ExecutePlanOpts, say). It lies outside its
// parent's interval, so self time charges its whole duration.
type span struct {
	Trace   string `json:"trace"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNs int64  `json:"startNs"` // since the tracer was created
	EndNs   int64  `json:"endNs"`
	Reenact bool   `json:"reenact,omitempty"`
	SelfNs  int64  `json:"selfNs"` // filled in by finish
}

func (s span) durNs() int64 { return s.EndNs - s.StartNs }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced window pays one nil check per op.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its id; end closes it.
func (t *tracer) start(trace, name string, parent int, reenact bool) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Trace: trace, ID: len(t.spans) + 1, Parent: parent, Name: name, StartNs: now, Reenact: reenact})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// timed records fn as a span and returns its duration in milliseconds.
func (t *tracer) timed(trace, name string, parent int, reenact bool, fn func()) float64 {
	id := t.start(trace, name, parent, reenact)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	t.end(id)
	return float64(d.Nanoseconds()) / 1e6
}

// selfTimes fills SelfNs: a span's duration minus the part of its interval
// its children cover. Nested children count by the union of their
// intervals clipped to the parent's; reenacted children by their summed
// durations. Self time never goes below zero.
func selfTimes(spans []span) {
	children := map[int][]int{}
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range spans {
		p := &spans[i]
		var covered int64
		type iv struct{ lo, hi int64 }
		var nested []iv
		for _, ci := range children[p.ID] {
			c := spans[ci]
			if c.Reenact {
				covered += c.durNs()
				continue
			}
			lo, hi := max(c.StartNs, p.StartNs), min(c.EndNs, p.EndNs)
			if hi > lo {
				nested = append(nested, iv{lo, hi})
			}
		}
		sort.Slice(nested, func(a, b int) bool { return nested[a].lo < nested[b].lo })
		var end int64 = -1 << 62
		for _, v := range nested {
			if v.hi <= end {
				continue
			}
			covered += v.hi - max(v.lo, end)
			end = v.hi
		}
		p.SelfNs = max(p.durNs()-covered, 0)
	}
}

// minMsByName is the per-layer reduction: the fastest span of each name,
// in milliseconds. Min-of-N is the layer's cost with the least
// interference the run saw.
func minMsByName(spans []span) map[string]float64 {
	out := map[string]float64{}
	for _, s := range spans {
		ms := float64(s.durNs()) / 1e6
		if cur, ok := out[s.Name]; !ok || ms < cur {
			out[s.Name] = ms
		}
	}
	return out
}

// writeJSONL writes the spans, one JSON object per line, after computing
// self times.
func (t *tracer) writeJSONL(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	selfTimes(spans)
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write trace %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return f.Close()
}
