package plan

import (
	"spmvtune/internal/hsa"
)

// ExecProfile records how one bin of one guarded execution actually ran —
// the observability unit the paper's methodology implies but the original
// artifact never exposes: kernel choice plus the measured device behaviour
// that justifies (or indicts) it. Profiles are attached to the ExecReport
// of every guarded run and, optionally, to the TuningPlan artifact so a
// cached plan can carry the evidence of its last execution.
type ExecProfile struct {
	// Bin identifies the workload bin; U is the granularity the plan chose.
	Bin int `json:"bin"`
	U   int `json:"u"`

	// Kernel is the kernel that finally served the bin (after any
	// fallbacks); KernelName is its pool name, or "reference" when the bin
	// degraded all the way to the native CPU reference.
	Kernel     int    `json:"kernel"`
	KernelName string `json:"kernelName"`

	// Rows and NNZ describe the bin's share of the matrix.
	Rows int   `json:"rows"`
	NNZ  int64 `json:"nnz"`

	// Vectors is the number of right-hand sides the accepted launch fused
	// (0 or 1 for a plain single-vector SpMV launch, B for a batched SpMM
	// launch serving B coalesced requests at once).
	Vectors int `json:"vectors,omitempty"`

	// Stage names the fallback-chain link that produced the accepted
	// result ("predicted", "serial-fallback", "cpu-reference");
	// FallbackDepth is its index in the chain (0 = the predicted kernel),
	// and Attempts counts every launch tried for this bin including the
	// accepted one.
	Stage         string `json:"stage"`
	FallbackDepth int    `json:"fallbackDepth"`
	Attempts      int    `json:"attempts"`

	// Cycles and Seconds are the modeled device cost of the accepted
	// launch (zero for CPU-reference service, which never touches the
	// simulator). They are deterministic: identical launches report
	// identical values.
	Cycles  float64 `json:"cycles"`
	Seconds float64 `json:"seconds"`

	// WallNs is the host wall time of the accepted launch. Unlike the
	// modeled metrics it is NOT deterministic, so trace emission excludes
	// it in deterministic mode.
	WallNs int64 `json:"wallNs,omitempty"`

	// Replayed reports that the accepted launch's modeled metrics (cycles,
	// seconds, counters) were taken from the framework's replay memo — the
	// values an earlier, simulated launch of the same cell reported — and
	// only its output was computed. False on a plan's first (cold) launch.
	Replayed bool `json:"replayed,omitempty"`

	// Counters holds the device performance counters of the accepted
	// launch; nil when collection was disabled or the bin was served by
	// the CPU reference.
	Counters *hsa.Counters `json:"counters,omitempty"`
}

// ActiveLaneRatio returns the profile's SIMD lane utilization in (0,1], or
// 0 when counters were not collected.
func (p *ExecProfile) ActiveLaneRatio() float64 {
	if p.Counters == nil {
		return 0
	}
	return p.Counters.ActiveLaneRatio()
}
