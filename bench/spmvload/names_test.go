package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and the tool must name the same workloads and metrics,
// with the same units, directions and bounds: the driver looks up by name
// what the tool prints.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}

	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the tool %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if i >= len(workloads) {
			break
		}
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), tool %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name, or a why of %d characters", w.Name, len(w.Why))
		}
	}

	check := func(kind string, file []benchMetric, tool []metricDef, bounded bool) {
		t.Helper()
		if len(file) != len(tool) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the tool %d", kind, len(file), len(tool))
		}
		seen := map[string]bool{}
		for i, d := range tool {
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
				t.Errorf("%s %q: bad name or unit %q", kind, d.name, d.unit)
			}
			if seen[d.name] {
				t.Errorf("%s %q is listed twice", kind, d.name)
			}
			seen[d.name] = true
			if d.better != "lower" && d.better != "higher" {
				t.Errorf("%s %q: better = %q", kind, d.name, d.better)
			}
			if bounded != (d.bound > 0) || d.bound > 0.25 {
				t.Errorf("%s %q: bound %v", kind, d.name, d.bound)
			}
			if i < len(file) {
				f := file[i]
				if f.Name != d.name || f.Unit != d.unit || f.Better != d.better || f.Bound != d.bound {
					t.Errorf("%s %d: BENCHMARK.json %+v, tool %+v", kind, i, f, d)
				}
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)

	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
}

// Every per-layer timing that is the minimum of a span, and every exact
// count, must be a per-layer metric the tool prints.
func TestLayerTablesAreConsistent(t *testing.T) {
	known := map[string]bool{}
	for _, d := range perLayer {
		known[d.name] = true
	}
	var missing []string
	for name := range layerSpans {
		if !known[name] {
			missing = append(missing, name)
		}
	}
	for _, name := range exactCounts {
		if !known[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("not in perLayer: %v", missing)
	}
}
