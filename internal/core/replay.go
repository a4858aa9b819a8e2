package core

import (
	"crypto/sha256"
	"encoding/binary"

	"spmvtune/internal/hsa"
	"spmvtune/internal/plan"
	"spmvtune/internal/plancache"
)

// This file is the launch-replay memo of plan execution. A launch's
// accounting (hsa.Stats, hsa.Counters) reads the matrix structure, the rows
// it covers, the kernel, the launch width and the device — never the vector
// values, and every launch starts from a cleared cache-tag array — so a
// fault-free launch of a plan's bin reports bit-for-bit what the previous
// one did. The first such launch simulates and stores its accounting; later
// ones take the stored numbers and copy their output rows from the
// execution's reference product, so a warm request walks the matrix once.
// See DESIGN.md "Replayed launches".

// launchMemoCapacity bounds a Framework's replay memo (entries, FIFO
// evicted; ~300 bytes each). A plan contributes one entry per (non-empty
// bin, width, counters on/off) it was served at.
const launchMemoCapacity = 4096

// launchCost is the accounting of one fault-free launch. counters is valid
// only for cells keyed with collection on.
type launchCost struct {
	stats    hsa.Stats
	counters hsa.Counters
}

// replayScope addresses the memo cells of one plan execution: prefix digests
// everything the launches of the execution share — the device fingerprint,
// the plan's matrix fingerprint, the binning parameters that turn the
// structure into row sets, and whether counters are collected. A nil scope never replays (no plan, or a plan whose
// binning could not be reconstructed).
type replayScope struct {
	memo   *plancache.Memo[launchCost]
	prefix [sha256.Size]byte
}

func (fw *Framework) replayScope(p *plan.TuningPlan, counters bool) *replayScope {
	var hdr [26]byte
	binary.LittleEndian.PutUint64(hdr[0:], fw.Cfg.Device.Fingerprint())
	binary.LittleEndian.PutUint64(hdr[8:], uint64(p.U))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(p.MaxBins))
	if p.Scheme == "single" {
		hdr[24] = 1
	}
	if counters {
		hdr[25] = 1
	}
	var buf [96]byte // a fingerprint is 32 hex digits: no allocation
	return &replayScope{
		memo:   fw.launches,
		prefix: sha256.Sum256(append(append(buf[:0], hdr[:]...), p.Fingerprint...)),
	}
}

// cell keys one launch of the scope: a bin, the kernel launched on it (the
// predicted one or the serial fallback) and the launch width.
func (s *replayScope) cell(binID, kid, width int) plancache.CostKey {
	var buf [sha256.Size + 24]byte
	copy(buf[:], s.prefix[:])
	binary.LittleEndian.PutUint64(buf[sha256.Size:], uint64(binID))
	binary.LittleEndian.PutUint64(buf[sha256.Size+8:], uint64(kid))
	binary.LittleEndian.PutUint64(buf[sha256.Size+16:], uint64(width))
	sum := sha256.Sum256(buf[:])
	return plancache.CostKey{binary.LittleEndian.Uint64(sum[0:8]), binary.LittleEndian.Uint64(sum[8:16])}
}
