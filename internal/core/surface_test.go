package core

import (
	"reflect"
	"sort"
	"testing"
)

// TestFrameworkSurface pins the exported method set of *Framework. The root
// package aliases the type, so every method here is public API, and the
// design is two verbs — Plan decides, ExecutePlan*Opts runs — plus model and
// counter accessors. A new entry point fails this test until the list is
// edited on purpose; before adding one, check it is not Plan followed by
// ExecutePlanOpts under another name.
func TestFrameworkSurface(t *testing.T) {
	want := []string{
		"Decide", "ExecutePlanBatchOpts", "ExecutePlanOpts", "LaunchCounts",
		"Model", "Plan", "PlanTraced", "SwapModel",
	}
	typ := reflect.TypeOf(&Framework{})
	var got []string
	for i := 0; i < typ.NumMethod(); i++ {
		got = append(got, typ.Method(i).Name)
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("exported methods of *Framework:\n got  %v\n want %v", got, want)
	}
}
