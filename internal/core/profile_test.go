package core

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"spmvtune/internal/trace"
)

// guardOptsProfiled returns guard options with counter collection and a
// deterministic trace writer attached.
func guardOptsProfiled(buf *bytes.Buffer, traceID string) GuardOptions {
	opt := DefaultGuardOptions()
	opt.Counters = true
	opt.Trace = trace.NewDeterministicWriter(buf)
	opt.TraceID = traceID
	return opt
}

// TestExecProfilesPopulated is the profile half of the observability
// acceptance criterion: with counters enabled, every per-bin ExecProfile of
// a clean guarded run reports nonzero modeled cycles and an active-lane
// ratio in (0,1].
func TestExecProfilesPopulated(t *testing.T) {
	fw := guardFramework(t)
	a, v, _ := guardMatrix()
	u := make([]float64, a.Rows)
	var buf bytes.Buffer
	_, rep, err := runGuarded(context.Background(), fw, a, v, u, guardOptsProfiled(&buf, "t1"))
	if err != nil {
		t.Fatalf("guarded run failed: %v", err)
	}
	if !rep.CountersEnabled {
		t.Fatal("CountersEnabled not set on report")
	}
	if len(rep.Profiles) == 0 || len(rep.Profiles) != len(rep.Bins) {
		t.Fatalf("want one profile per bin (%d), got %d", len(rep.Bins), len(rep.Profiles))
	}
	var nnz int64
	for i, pr := range rep.Profiles {
		if pr.Cycles <= 0 {
			t.Errorf("profile %d: cycles = %v, want > 0", i, pr.Cycles)
		}
		if r := pr.ActiveLaneRatio(); r <= 0 || r > 1 {
			t.Errorf("profile %d: active-lane ratio = %v, want in (0,1]", i, r)
		}
		if pr.Counters == nil {
			t.Fatalf("profile %d: counters missing with collection enabled", i)
		}
		if pr.Rows <= 0 || pr.NNZ <= 0 {
			t.Errorf("profile %d: empty bin shape rows=%d nnz=%d", i, pr.Rows, pr.NNZ)
		}
		if pr.Stage != "predicted" || pr.FallbackDepth != 0 {
			t.Errorf("profile %d: clean run reports stage %q depth %d", i, pr.Stage, pr.FallbackDepth)
		}
		if pr.KernelName == "" {
			t.Errorf("profile %d: kernel name missing", i)
		}
		nnz += pr.NNZ
	}
	if nnz != int64(a.NNZ()) {
		t.Errorf("profiles cover %d non-zeros, matrix has %d", nnz, a.NNZ())
	}
	if rep.Counters.MemInstrs == 0 || rep.Counters.WGCount == 0 {
		t.Errorf("aggregated counters empty: %+v", rep.Counters)
	}
}

// TestCountersOffByDefault: without opting in, guarded runs must carry no
// counters (the zero-overhead contract's API side).
func TestCountersOffByDefault(t *testing.T) {
	fw := guardFramework(t)
	a, v, _ := guardMatrix()
	u := make([]float64, a.Rows)
	_, rep, err := runGuarded(context.Background(), fw, a, v, u, DefaultGuardOptions())
	if err != nil {
		t.Fatalf("guarded run failed: %v", err)
	}
	if rep.CountersEnabled {
		t.Error("CountersEnabled set without opting in")
	}
	for i, pr := range rep.Profiles {
		if pr.Counters != nil {
			t.Errorf("profile %d carries counters with collection disabled", i)
		}
		if pr.Cycles <= 0 {
			t.Errorf("profile %d: cycles = %v, want > 0 even without counters", i, pr.Cycles)
		}
	}
}

// TestTraceDeterministic is the trace half of the acceptance criterion:
// the same guarded launch run twice yields byte-identical JSONL traces.
func TestTraceDeterministic(t *testing.T) {
	fw := guardFramework(t)
	a, v, _ := guardMatrix()

	// A cold framework per run, as two invocations of `spmvtune run -trace`
	// are: on a shared one the second run's spans would say "replayed".
	runOnce := func() []byte {
		u := make([]float64, a.Rows)
		var buf bytes.Buffer
		_, _, err := runGuarded(context.Background(), NewFramework(fw.Cfg, fw.Model()), a, v, u, guardOptsProfiled(&buf, "req"))
		if err != nil {
			t.Fatalf("guarded run failed: %v", err)
		}
		return buf.Bytes()
	}
	t1, t2 := runOnce(), runOnce()
	if len(t1) == 0 {
		t.Fatal("no trace output")
	}
	if !bytes.Equal(t1, t2) {
		t.Fatalf("deterministic traces differ:\n%s\nvs\n%s", t1, t2)
	}

	// The trace must contain every pipeline phase, in order.
	var names []string
	for _, line := range strings.Split(strings.TrimRight(string(t1), "\n"), "\n") {
		var s trace.Span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("trace line not JSON: %v (%s)", err, line)
		}
		if s.Trace != "req" {
			t.Errorf("span %q lost its trace id: %q", s.Name, s.Trace)
		}
		names = append(names, s.Name)
	}
	for _, phase := range []string{"features", "predict-u", "bin", "predict-kernel", "execute-bin"} {
		found := false
		for _, n := range names {
			if n == phase {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("trace missing phase %q (got %v)", phase, names)
		}
	}
}

// TestPlanTracedSpans: the predict-only path emits the four predict phases
// and no execute spans.
func TestPlanTracedSpans(t *testing.T) {
	fw := guardFramework(t)
	a, _, _ := guardMatrix()
	var buf bytes.Buffer
	tw := trace.NewDeterministicWriter(&buf)
	if _, err := fw.PlanTraced(context.Background(), a, "", tw, "plan-1"); err != nil {
		t.Fatalf("PlanTraced failed: %v", err)
	}
	out := buf.String()
	for _, phase := range []string{"features", "predict-u", "bin", "predict-kernel"} {
		if !strings.Contains(out, `"name":"`+phase+`"`) {
			t.Errorf("plan trace missing %q:\n%s", phase, out)
		}
	}
	if strings.Contains(out, "execute-bin") {
		t.Errorf("predict-only trace contains execute spans:\n%s", out)
	}
}

// TestExecutePlanProfiles: plan-driven execution produces the same profile
// coverage as the direct guarded path.
func TestExecutePlanProfiles(t *testing.T) {
	fw := guardFramework(t)
	a, v, _ := guardMatrix()
	p, err := fw.Plan(context.Background(), a)
	if err != nil {
		t.Fatalf("Plan failed: %v", err)
	}
	u := make([]float64, a.Rows)
	var buf bytes.Buffer
	rep, err := fw.ExecutePlanOpts(context.Background(), p, a, v, u, guardOptsProfiled(&buf, ""))
	if err != nil {
		t.Fatalf("ExecutePlan failed: %v", err)
	}
	if len(rep.Profiles) != len(p.Bins) {
		t.Fatalf("want %d profiles, got %d", len(p.Bins), len(rep.Profiles))
	}
	for i, pr := range rep.Profiles {
		if pr.U != p.U {
			t.Errorf("profile %d: U = %d, plan says %d", i, pr.U, p.U)
		}
		if pr.Cycles <= 0 || pr.Counters == nil {
			t.Errorf("profile %d not populated: %+v", i, pr)
		}
	}
	if !strings.Contains(buf.String(), "execute-bin") {
		t.Error("plan execution emitted no execute-bin spans")
	}
}
