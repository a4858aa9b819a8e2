// Package hsa is a deterministic, functional simulator of an HSA/GCN-style
// throughput device — the substitute for the paper's AMD A10-7850K APU
// (OpenCL work-groups dispatched through SNACK onto eight GCN compute
// units).
//
// Kernels written against this package execute *functionally* in Go
// (producing real results) while the simulator accounts device cycles using
// a throughput model that captures the three effects the paper's kernel
// choices hinge on:
//
//   - memory coalescing: a wavefront's global access costs one transaction
//     per distinct SegmentBytes-sized segment it touches;
//   - SIMD divergence: instructions are charged per wavefront, so inactive
//     lanes waste issue slots and a wavefront pays for its longest lane;
//   - scheduling/launch overhead: work-groups pay a dispatch cost and are
//     distributed over a fixed number of compute units, and each kernel
//     launch pays a host-side dispatch overhead.
//
// Being deterministic, the simulator doubles as the performance oracle for
// offline training: the same (matrix, binning, kernel) always produces the
// same estimated time.
package hsa

import "math"

// Config describes the simulated device. The zero value is not usable; use
// DefaultConfig or a preset.
type Config struct {
	Name string

	// Execution resources.
	NumCUs           int // compute units executing work-groups
	SIMDPerCU        int // SIMD pipes per CU (concurrent wavefronts of one WG)
	WavefrontSize    int // lanes per wavefront
	MaxWorkGroupSize int // work-items per work-group
	LDSBytesPerWG    int // local data share available to one work-group

	// Clocking and memory system.
	ClockHz           float64 // device clock
	SegmentBytes      int64   // coalescing segment (cache line) size
	CacheBytes        int64   // modeled shared cache capacity
	TxHitCycles       float64 // throughput cost of a transaction hitting cache
	TxMissCycles      float64 // throughput cost of a transaction missing to DRAM
	DRAMBytesPerCycle float64 // aggregate DRAM bandwidth bound

	// Instruction issue costs (per wavefront instruction).
	ALUCycles     float64
	LDSCycles     float64
	BarrierCycles float64

	// Dispatch overheads.
	WGLaunchCycles     float64 // per work-group dispatch cost
	KernelLaunchCycles float64 // per kernel launch (host->device) cost
	// QueueDispatchCycles is the cost of enqueueing one more kernel onto an
	// already-armed HSA user-mode queue (AQL packet write + doorbell) — far
	// cheaper than a host-synchronized launch, and the mechanism that lets
	// per-bin kernels run back-to-back.
	QueueDispatchCycles float64
}

// Fingerprint digests every field of the config that the cost model reads,
// for content-addressed caching of simulated results. Two configs with equal
// fingerprints produce identical Stats for any launch. Name is cosmetic and
// excluded. The trailing zero word keeps the digest, and with it every
// cost-cache and replay-memo key, equal to that of earlier builds.
func (c Config) Fingerprint() uint64 {
	h := uint64(14695981039346656037) // FNV-1a
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	mixF := func(f float64) { mix(math.Float64bits(f)) }
	mix(uint64(c.NumCUs))
	mix(uint64(c.SIMDPerCU))
	mix(uint64(c.WavefrontSize))
	mix(uint64(c.MaxWorkGroupSize))
	mix(uint64(c.LDSBytesPerWG))
	mixF(c.ClockHz)
	mix(uint64(c.SegmentBytes))
	mix(uint64(c.CacheBytes))
	mixF(c.TxHitCycles)
	mixF(c.TxMissCycles)
	mixF(c.DRAMBytesPerCycle)
	mixF(c.ALUCycles)
	mixF(c.LDSCycles)
	mixF(c.BarrierCycles)
	mixF(c.WGLaunchCycles)
	mixF(c.KernelLaunchCycles)
	mixF(c.QueueDispatchCycles)
	mix(0)
	return h
}

// DefaultConfig models the paper's platform: an AMD A10-7850K Kaveri APU
// GPU — 8 GCN compute units at 720 MHz, 4 SIMD pipes per CU, 64-lane
// wavefronts, 256-thread work-groups, 32 KiB LDS, 64 B cache lines, and
// shared DDR3 memory at roughly 34 GB/s.
func DefaultConfig() Config {
	return Config{
		Name:             "kaveri-gcn",
		NumCUs:           8,
		SIMDPerCU:        4,
		WavefrontSize:    64,
		MaxWorkGroupSize: 256,
		LDSBytesPerWG:    32 << 10,

		ClockHz:           720e6,
		SegmentBytes:      64,
		CacheBytes:        512 << 10,
		TxHitCycles:       4,
		TxMissCycles:      24,
		DRAMBytesPerCycle: 48,

		ALUCycles:     4, // 64 lanes issued over a 16-wide SIMD pipe
		LDSCycles:     4,
		BarrierCycles: 16,

		WGLaunchCycles:      300,
		KernelLaunchCycles:  1500,
		QueueDispatchCycles: 100,
	}
}

// SmallConfig is a 2-CU, 32-lane device useful in tests that want wavefront
// effects with tiny inputs.
func SmallConfig() Config {
	c := DefaultConfig()
	c.Name = "small-test-device"
	c.NumCUs = 2
	c.WavefrontSize = 32
	c.MaxWorkGroupSize = 64
	c.CacheBytes = 16 << 10
	return c
}

// Validate reports configuration errors (non-positive resources, work-group
// not divisible into wavefronts).
func (c Config) Validate() error {
	switch {
	case c.NumCUs <= 0:
		return errCfg("NumCUs")
	case c.SIMDPerCU <= 0:
		return errCfg("SIMDPerCU")
	case c.WavefrontSize <= 0:
		return errCfg("WavefrontSize")
	case c.MaxWorkGroupSize <= 0 || c.MaxWorkGroupSize%c.WavefrontSize != 0:
		return errCfg("MaxWorkGroupSize")
	case c.ClockHz <= 0:
		return errCfg("ClockHz")
	case c.SegmentBytes <= 0:
		return errCfg("SegmentBytes")
	case c.DRAMBytesPerCycle <= 0:
		return errCfg("DRAMBytesPerCycle")
	}
	return nil
}

type cfgError string

func errCfg(field string) error { return cfgError(field) }

func (e cfgError) Error() string { return "hsa: invalid config field " + string(e) }
