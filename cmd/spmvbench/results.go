package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Schema identifies the result-file layout; bump on breaking changes so a
// stale baseline fails loudly instead of comparing garbage. v2 added the
// host CPU count and the sequential-vs-parallel search benchmark; v3 added
// the legacy-vs-cached tune-time comparison (TuneBench); v4 added the
// parameter-space synthesis comparison (SynthBench); v5 added the fused
// multi-vector batch comparison (BatchBench).
const Schema = "spmvbench/v5"

// CounterSummary condenses one case's device counters to the signals the
// paper's analysis keys on.
type CounterSummary struct {
	ActiveLaneRatio  float64 `json:"activeLaneRatio"`
	LoadImbalance    float64 `json:"loadImbalance"`
	MemInstrs        int64   `json:"memInstrs"`
	LDSReads         int64   `json:"ldsReads"`
	LDSWrites        int64   `json:"ldsWrites"`
	LDSBankConflicts int64   `json:"ldsBankConflicts"`
	BarrierWaits     int64   `json:"barrierWaits"`
}

// Case is one benchmark matrix's measurement.
//
// Cycles (and everything derived from the simulator) is deterministic:
// identical code on any machine reports identical values, which is what
// lets CI gate on it. NsPerOp and NsPerOpWarm are host wall time —
// machine-dependent, recorded for humans, never compared: NsPerOp is a
// plan's first execution on a fresh Framework (every launch simulated),
// NsPerOpWarm the next one (every launch replayed from the memo).
type Case struct {
	Name   string `json:"name"`
	Family string `json:"family"`
	Rows   int    `json:"rows"`
	Cols   int    `json:"cols"`
	NNZ    int64  `json:"nnz"`

	U    int `json:"u"`
	Bins int `json:"bins"`

	Cycles     float64 `json:"cycles"`
	SimSeconds float64 `json:"simSeconds"`
	// GFLOPSEquivalent is 2·nnz / modeled seconds / 1e9 — the paper's
	// throughput metric computed against the simulated device clock.
	GFLOPSEquivalent float64 `json:"gflopsEquivalent"`
	NsPerOp          int64   `json:"nsPerOp"`
	NsPerOpWarm      int64   `json:"nsPerOpWarm,omitempty"`

	Degraded bool           `json:"degraded,omitempty"`
	Counters CounterSummary `json:"counters"`
}

// SearchBench records the sequential-vs-parallel exhaustive-search
// comparison of one run: the same tuning search timed at Workers=1 and at
// Workers=N, with the requirement that both produce identical labels.
// Seconds are host wall time — machine-dependent, reported and never
// gated — which is why HostCPUs is recorded beside them.
type SearchBench struct {
	Matrices   int     `json:"matrices"` // matrices searched per pass
	Workers    int     `json:"workers"`
	HostCPUs   int     `json:"hostCPUs"`
	SeqSeconds float64 `json:"seqSeconds"`
	ParSeconds float64 `json:"parSeconds"`
	Speedup    float64 `json:"speedup"`
	// Identical reports that the parallel pass produced exactly the
	// sequential pass's SearchResults — the determinism contract.
	Identical bool `json:"identical"`
}

// TuneBench records the tune-time comparison of one run: the exhaustive
// search over the corpus timed twice at Workers=1 — once with the cost
// cache and lower-bound pruner disabled (the legacy path), once with a
// fresh cost cache plus pruning (the production default). LegacySims and
// TunedSims count the kernel launches each pass simulated; their ratio is
// what the shared-computation layer saves, repeats exactly on any host and
// is the gated quantity. The seconds and their Speedup are host wall time,
// recorded for humans (a faster simulator shrinks both passes but the
// legacy one more, since it runs exactly the wasteful kernels the pruner
// skips). Identical reports that every tuned result passed
// core.CheckSearchEquivalence against its legacy counterpart.
type TuneBench struct {
	Matrices      int     `json:"matrices"`
	HostCPUs      int     `json:"hostCPUs"`
	LegacySeconds float64 `json:"legacySeconds"`
	TunedSeconds  float64 `json:"tunedSeconds"`
	Speedup       float64 `json:"speedup"`
	Identical     bool    `json:"identical"`
	CacheHits     int64   `json:"cacheHits"`
	CacheMisses   int64   `json:"cacheMisses"`
	Pruned        int64   `json:"pruned"` // (U, bin, kernel) cells skipped by the lower bound
	LegacySims    int64   `json:"legacySims,omitempty"`
	TunedSims     int64   `json:"tunedSims,omitempty"`
	SimRatio      float64 `json:"simRatio,omitempty"` // legacy/tuned simulated launches
}

// SynthBench records the parameter-space synthesis comparison of one run:
// the exhaustive search over the corpus in the degenerate pool space and in
// the synthesized space, both at Workers=1 with a fresh cost cache and the
// lower-bound pruner on. The modeled quantities (geomean seconds, simulated-
// cell counts, synth wins) are deterministic; only nothing here is wall
// time, so every gate is always enforced.
//
// CycleRatio compares best-achievable modeled time (the minimum per-U sum —
// the space's capability, independent of the smallest-U labeling
// tie-break): geomean over the corpus of synth/pool. Below 1.0 means the
// synthesized kernels model strictly faster than the fixed pool. SimRatio
// is the search-cost side of the same trade: simulated cells in the synth
// pass over the pool pass — certified pruning is what keeps a 4x larger
// space within a bounded simulation budget.
type SynthBench struct {
	Matrices  int `json:"matrices"`
	PoolSize  int `json:"poolSize"`  // kernels in the pool space
	SpaceSize int `json:"spaceSize"` // kernels in the synthesized space

	PoolSims  int64 `json:"poolSims"`  // cells actually simulated, pool pass
	SynthSims int64 `json:"synthSims"` // cells actually simulated, synth pass

	PoolGeoSeconds  float64 `json:"poolGeoSeconds"`  // geomean best-achievable modeled s
	SynthGeoSeconds float64 `json:"synthGeoSeconds"` // geomean best-achievable modeled s
	CycleRatio      float64 `json:"cycleRatio"`      // synth/pool modeled-cycle geomean
	SimRatio        float64 `json:"simRatio"`        // synth/pool simulated cells

	// PoolIdentical reports that the pool-space pass reproduced the legacy
	// (default-space, cache and pruner off) labels on every matrix — the
	// degenerate-subspace contract.
	PoolIdentical bool `json:"poolIdentical"`
	// SynthWins counts best-U bins across the corpus won by a synthesized
	// (non-pool) kernel.
	SynthWins int64 `json:"synthWins"`
}

// BatchBench records the fused multi-vector comparison of one run: every
// corpus matrix planned once, then served B times through the single-vector
// guarded path and once through the fused B-vector batch path. Both cycle
// totals come from the simulator, so the comparison is deterministic and
// machine-independent.
//
// CyclesPerRequestRatio is the fused path's modeled cycles per request over
// the unbatched path's (total fused cycles, including any isolation
// re-services, divided by the total of B sequential runs). Below 1.0 means
// the fused launch amortizes the matrix's DRAM traffic across its
// right-hand sides; the CI gate requires <= 0.6 at B=8. Identical reports
// that every fused result vector was byte-identical to its sequential
// counterpart — the demux contract spmvd's coalescer relies on. Isolated
// counts vectors that fell out of the fused path; on a clean corpus with no
// injected faults it must be zero.
type BatchBench struct {
	Matrices int `json:"matrices"`
	Vectors  int `json:"vectors"` // right-hand sides per fused launch (B)

	UnbatchedCycles float64 `json:"unbatchedCycles"` // summed cycles of B single-vector runs
	BatchedCycles   float64 `json:"batchedCycles"`   // summed cycles of the fused runs

	CyclesPerRequestRatio float64 `json:"cyclesPerRequestRatio"` // batched/unbatched
	Identical             bool    `json:"identical"`
	Isolated              int     `json:"isolated"`
}

// Results is the machine-readable output of one spmvbench run.
type Results struct {
	Schema    string       `json:"schema"`
	GoVersion string       `json:"goVersion,omitempty"`
	HostCPUs  int          `json:"hostCPUs,omitempty"`
	Search    *SearchBench `json:"search,omitempty"`
	Tune      *TuneBench   `json:"tune,omitempty"`
	Synth     *SynthBench  `json:"synth,omitempty"`
	Batch     *BatchBench  `json:"batch,omitempty"`
	Cases     []Case       `json:"cases"`
}

// WriteFile writes the results as indented JSON.
func (r *Results) WriteFile(path string) error {
	blob, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// ReadResults loads a results file and checks its schema.
func ReadResults(path string) (*Results, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Results
	if err := json.Unmarshal(blob, &r); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("%s: schema %q, this binary expects %q", path, r.Schema, Schema)
	}
	return &r, nil
}

// Compare reports every regression of cur against base: a case whose
// modeled cycles grew beyond base·threshold (threshold 1.25 = fail above
// +25%), or a baseline case that disappeared. New cases in cur are fine —
// they gate the next baseline refresh, not this run. The returned slice is
// empty when the run is clean; entries are human-readable one-liners.
func Compare(base, cur *Results, threshold float64) []string {
	curByName := make(map[string]*Case, len(cur.Cases))
	for i := range cur.Cases {
		curByName[cur.Cases[i].Name] = &cur.Cases[i]
	}
	var regressions []string
	names := make([]string, 0, len(base.Cases))
	baseByName := make(map[string]*Case, len(base.Cases))
	for i := range base.Cases {
		baseByName[base.Cases[i].Name] = &base.Cases[i]
		names = append(names, base.Cases[i].Name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := baseByName[name]
		c, ok := curByName[name]
		if !ok {
			regressions = append(regressions,
				fmt.Sprintf("%s: present in baseline, missing from this run", name))
			continue
		}
		if b.Cycles > 0 && c.Cycles > b.Cycles*threshold {
			regressions = append(regressions,
				fmt.Sprintf("%s: %.0f cycles vs baseline %.0f (%.2fx > %.2fx threshold)",
					name, c.Cycles, b.Cycles, c.Cycles/b.Cycles, threshold))
		}
	}
	return regressions
}

// CheckSearch gates the search benchmark: the parallel result must equal
// the sequential one on every host (determinism is not machine-dependent).
func CheckSearch(sb *SearchBench) []string {
	if sb == nil || sb.Identical {
		return nil
	}
	return []string{"search: parallel labels differ from sequential labels (determinism violation)"}
}

// CheckSynth gates the parameter-space synthesis comparison. All three
// requirements are over deterministic modeled quantities, so they are
// unconditionally enforced: the pool pass must reproduce the legacy labels
// (the degenerate-subspace contract), the synthesized space must model
// strictly faster than the pool across the corpus, and its search cost must
// stay within maxSimRatio times the pool's simulated cells — the pruning
// budget that makes the larger space affordable.
func CheckSynth(sb *SynthBench, maxSimRatio float64) []string {
	if sb == nil {
		return nil
	}
	var regs []string
	if !sb.PoolIdentical {
		regs = append(regs,
			"synth: pool-space labels differ from the legacy search (degenerate-subspace violation)")
	}
	if sb.CycleRatio >= 1 {
		regs = append(regs,
			fmt.Sprintf("synth: modeled-cycle geomean ratio %.4f vs pool, want < 1", sb.CycleRatio))
	}
	if maxSimRatio > 0 && sb.SimRatio > maxSimRatio {
		regs = append(regs,
			fmt.Sprintf("synth: simulated %.2fx the pool's cells (%d vs %d), want <= %.2fx",
				sb.SimRatio, sb.SynthSims, sb.PoolSims, maxSimRatio))
	}
	return regs
}

// CheckBatch gates the fused multi-vector comparison. Every requirement is
// over deterministic modeled quantities, so all are always enforced: the
// fused results must be byte-identical to the sequential single-vector
// results (the demux contract), no vector may fall out of the fused path on
// a fault-free corpus, and the fused cycles-per-request must stay within
// maxRatio of the unbatched path — the DRAM amortization the coalescer
// exists to deliver. maxRatio <= 0 disables the ratio gate but never the
// identity and isolation checks.
func CheckBatch(bb *BatchBench, maxRatio float64) []string {
	if bb == nil {
		return nil
	}
	var regs []string
	if !bb.Identical {
		regs = append(regs,
			"batch: fused results differ from sequential single-vector results (byte-identity violation)")
	}
	if bb.Isolated > 0 {
		regs = append(regs,
			fmt.Sprintf("batch: %d vector(s) isolated out of the fused path on a fault-free corpus", bb.Isolated))
	}
	if maxRatio > 0 && bb.CyclesPerRequestRatio > maxRatio {
		regs = append(regs,
			fmt.Sprintf("batch: %.4f modeled cycles-per-request vs unbatched at B=%d, want <= %.2f",
				bb.CyclesPerRequestRatio, bb.Vectors, maxRatio))
	}
	return regs
}

// CheckTune gates the tune-time comparison: the cached+pruned search must
// reproduce the legacy labels unconditionally, and must simulate at least
// minSimRatio times fewer launches than the legacy search. Both are exact,
// machine-independent counts, so the floor is always enforced when nonzero;
// the wall-clock speedup is reported alongside and never gated.
func CheckTune(tb *TuneBench, minSimRatio float64) []string {
	if tb == nil {
		return nil
	}
	var regs []string
	if !tb.Identical {
		regs = append(regs,
			"tune: cached+pruned labels differ from legacy exhaustive labels (determinism violation)")
	}
	if minSimRatio > 0 && tb.SimRatio < minSimRatio {
		regs = append(regs,
			fmt.Sprintf("tune: legacy search simulated %.2fx the cached+pruned search's launches (%d vs %d), want >= %.2fx",
				tb.SimRatio, tb.LegacySims, tb.TunedSims, minSimRatio))
	}
	return regs
}
