package kernels

import "spmvtune/internal/binning"

// SplitGroups partitions the row sequence of groups into at most shards
// contiguous slices, each (except possibly the last non-empty one) covering
// a multiple of rowsPerWG rows, balanced to within one work-group. The
// split is a pure function of its arguments — independent of worker count
// and scheduling — and every row lands in exactly one shard, preserving the
// iteration order of the original group list. Shards beyond the available
// work-groups come back empty.
func SplitGroups(groups []binning.Group, rowsPerWG, shards int) [][]binning.Group {
	if shards < 1 {
		shards = 1
	}
	if rowsPerWG < 1 {
		rowsPerWG = 1
	}
	out := make([][]binning.Group, shards)
	total := countRows(groups)
	if total == 0 {
		return out
	}
	wgs := (total + rowsPerWG - 1) / rowsPerWG
	gi, off := 0, int32(0)
	for s := 0; s < shards && gi < len(groups); s++ {
		nwg := wgs / shards
		if s < wgs%shards {
			nwg++
		}
		rows := nwg * rowsPerWG // the final shard's tail is clamped below
		for rows > 0 && gi < len(groups) {
			g := groups[gi]
			take := g.Count - off
			if int(take) > rows {
				take = int32(rows)
			}
			out[s] = append(out[s], binning.Group{Start: g.Start + off, Count: take})
			rows -= int(take)
			off += take
			if off == g.Count {
				gi++
				off = 0
			}
		}
	}
	return out
}
