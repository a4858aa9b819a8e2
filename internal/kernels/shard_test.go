package kernels

import (
	"testing"

	"spmvtune/internal/binning"
	"spmvtune/internal/hsa"
)

// flattenRows expands groups into the explicit row sequence they cover.
func flattenRows(groups []binning.Group) []int32 {
	var rows []int32
	for _, g := range groups {
		for r := g.Start; r < g.Start+g.Count; r++ {
			rows = append(rows, r)
		}
	}
	return rows
}

func TestSplitGroupsPreservesRowsAndOrder(t *testing.T) {
	groups := []binning.Group{{Start: 0, Count: 7}, {Start: 100, Count: 1}, {Start: 40, Count: 22}, {Start: 900, Count: 3}}
	want := flattenRows(groups)
	for _, rowsPerWG := range []int{1, 4, 8, 256} {
		for _, shards := range []int{1, 2, 3, 8, 64} {
			parts := SplitGroups(groups, rowsPerWG, shards)
			if len(parts) != shards {
				t.Fatalf("rowsPerWG=%d shards=%d: got %d parts", rowsPerWG, shards, len(parts))
			}
			var got []int32
			for _, p := range parts {
				got = append(got, flattenRows(p)...)
			}
			if len(got) != len(want) {
				t.Fatalf("rowsPerWG=%d shards=%d: %d rows, want %d", rowsPerWG, shards, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("rowsPerWG=%d shards=%d: row %d is %d, want %d", rowsPerWG, shards, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSplitGroupsWGAligned: every shard boundary must fall on a work-group
// boundary of the original launch, so each shard dispatches exactly the
// work-groups the unsharded kernel would.
func TestSplitGroupsWGAligned(t *testing.T) {
	groups := []binning.Group{{Start: 0, Count: 1000}, {Start: 5000, Count: 37}}
	total := 1037
	for _, rowsPerWG := range []int{4, 64, 256} {
		for _, shards := range []int{2, 3, 5, 8} {
			parts := SplitGroups(groups, rowsPerWG, shards)
			cum := 0
			for s, p := range parts {
				for _, g := range p {
					cum += int(g.Count)
				}
				if cum != total && cum%rowsPerWG != 0 {
					t.Fatalf("rowsPerWG=%d shards=%d: boundary after shard %d at row %d is not WG-aligned",
						rowsPerWG, shards, s, cum)
				}
			}
			if cum != total {
				t.Fatalf("rowsPerWG=%d shards=%d: covered %d rows, want %d", rowsPerWG, shards, cum, total)
			}
		}
	}
}

func TestSplitGroupsEmpty(t *testing.T) {
	parts := SplitGroups(nil, 256, 4)
	if len(parts) != 4 {
		t.Fatalf("got %d parts, want 4", len(parts))
	}
	for i, p := range parts {
		if len(p) != 0 {
			t.Fatalf("part %d not empty: %v", i, p)
		}
	}
}

// TestRowsPerWG checks the per-kernel work-group packing the shard
// alignment relies on.
func TestRowsPerWG(t *testing.T) {
	cfg := hsa.DefaultConfig()
	if got := (Kernel{P: KernelParams{TPR: 1}}).RowsPerWG(cfg); got != cfg.MaxWorkGroupSize {
		t.Errorf("Serial: %d rows/WG, want %d", got, cfg.MaxWorkGroupSize)
	}
	if got := (Kernel{P: KernelParams{TPR: 4}}).RowsPerWG(cfg); got != cfg.MaxWorkGroupSize/4 {
		t.Errorf("Subvector4: %d rows/WG, want %d", got, cfg.MaxWorkGroupSize/4)
	}
	if got := VectorKernel().RowsPerWG(cfg); got != 1 {
		t.Errorf("Vector: %d rows/WG, want 1", got)
	}
	// Every kernel must report a positive packing, hostile params included.
	infos := append(append([]Info{}, SynthSpace().Infos...), Info{Name: "hostile", Kernel: Kernel{P: KernelParams{TPR: 1 << 20, RowsPerWG: -3}}})
	for _, info := range infos {
		if got := info.Kernel.RowsPerWG(cfg); got < 1 {
			t.Errorf("kernel %s: RowsPerWG = %d", info.Name, got)
		}
	}
}
