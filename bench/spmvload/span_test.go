package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", StartNs: 0, EndNs: 1000},
		// Two nested children that overlap each other (union 100..500) and
		// one that sticks out past the parent's end (clipped to 900..1000).
		{ID: 2, Parent: 1, Name: "a", StartNs: 100, EndNs: 400},
		{ID: 3, Parent: 1, Name: "b", StartNs: 300, EndNs: 500},
		{ID: 4, Parent: 1, Name: "c", StartNs: 900, EndNs: 1200},
		// A grandchild does not count against the root.
		{ID: 5, Parent: 2, Name: "a1", StartNs: 150, EndNs: 250},
		// Re-enacted children lie outside their parent and charge their
		// whole duration.
		{ID: 6, Name: "execute", StartNs: 2000, EndNs: 2100},
		{ID: 7, Parent: 6, Name: "mulvec", StartNs: 2100, EndNs: 2130, Reenact: true},
		{ID: 8, Parent: 6, Name: "launch", StartNs: 2130, EndNs: 2190, Reenact: true},
		// Children that cost more than the parent leave zero, never less.
		{ID: 9, Name: "small", StartNs: 3000, EndNs: 3010},
		{ID: 10, Parent: 9, Name: "big", StartNs: 3010, EndNs: 3100, Reenact: true},
	}
	selfTimes(spans)
	want := map[int]int64{1: 500, 2: 200, 3: 200, 4: 300, 5: 100, 6: 10, 7: 30, 8: 60, 9: 0, 10: 90}
	for _, s := range spans {
		if s.SelfNs != want[s.ID] {
			t.Errorf("span %d (%s): self = %d, want %d", s.ID, s.Name, s.SelfNs, want[s.ID])
		}
	}
}

func TestTracerRecordsAndWrites(t *testing.T) {
	tr := newTracer()
	root := tr.start("t1", "op", 0, false)
	ms := tr.timed("t1", "child", root, false, func() {})
	tr.end(root)
	if ms < 0 {
		t.Errorf("timed returned %v ms", ms)
	}
	if got := minMsByName(tr.spans); len(got) != 2 {
		t.Errorf("minMsByName = %v, want two names", got)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := tr.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines, want 2", len(lines))
	}
	var child span
	if err := json.Unmarshal([]byte(lines[1]), &child); err != nil {
		t.Fatal(err)
	}
	if child.Trace != "t1" || child.Name != "child" || child.Parent != root || child.EndNs < child.StartNs {
		t.Errorf("child span = %+v", child)
	}
}

func TestNilTracerIsSilent(t *testing.T) {
	var tr *tracer
	id := tr.start("t", "x", 0, false)
	tr.end(id)
	ran := false
	tr.timed("t", "y", 0, false, func() { ran = true })
	if id != 0 || !ran {
		t.Errorf("nil tracer: id %d, ran %v", id, ran)
	}
}
