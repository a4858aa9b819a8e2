package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"spmvtune/internal/c50"
	"spmvtune/internal/core"
	"spmvtune/internal/hsa"
	"spmvtune/internal/matgen"
	"spmvtune/internal/plan"
	"spmvtune/internal/plancache"
	"spmvtune/internal/sparse"
)

var (
	synthFwOnce sync.Once
	synthFwTest *core.Framework
)

// synthFramework is testFramework's model trained over the synthesized
// kernel space, so its plans are version 2 plans of space "synth".
func synthFramework(t *testing.T) *core.Framework {
	t.Helper()
	synthFwOnce.Do(func() {
		cfg := core.Config{Device: hsa.DefaultConfig(), MaxBins: 32, Us: []int{10, 50, 200, 1000}, KernelSpace: "synth"}
		td := core.NewTrainingData(cfg)
		td.AddMatrix(cfg, matgen.RoadNetwork(600, 1))
		td.AddMatrix(cfg, matgen.BlockFEM(80, 150, 30, 2))
		synthFwTest = core.NewFramework(cfg, core.TrainModel(td, cfg, c50.DefaultOptions()))
	})
	return synthFwTest
}

// persistPlan writes a one-bin "single" plan of space synth for a, whose
// bin is bin, into dir as the plan store would have: the plan's JSON, then
// its SHA-256 trailer.
func persistPlan(t *testing.T, dir string, a *sparse.CSR, modelVersion, bin string) {
	t.Helper()
	fp := plan.Fingerprint(a)
	body := fmt.Sprintf(`{"version":2,"space":"synth","fingerprint":%q,"modelVersion":%q,"rows":%d,"cols":%d,"nnz":%d,"u":0,"maxBins":0,"scheme":"single","bins":[%s]}`,
		fp, modelVersion, a.Rows, a.Cols, a.NNZ(), bin)
	sum := sha256.Sum256([]byte(body))
	entry := body + "\n#sha256:" + hex.EncodeToString(sum[:]) + "\n"
	if err := os.WriteFile(filepath.Join(dir, fp+".plan.json"), []byte(entry), 0o644); err != nil {
		t.Fatal(err)
	}
}

// A plan persisted when the synthesized space still held the points the
// census pruned names a point that is gone: a sequential-combine kernel, a
// rows-per-work-group coordinate, or an ID past the 21 the space now
// enumerates. Such a plan must not load: the request re-plans and answers
// 200 with the product. A plan naming a point the space keeps is the
// control: it loads from the store, as a disk hit.
func TestPersistedPlanNamingDeletedPointReplans(t *testing.T) {
	fw := synthFramework(t)
	version := core.ModelVersion(fw.Model())
	a := matgen.RoadNetwork(700, 3)
	v := make([]float64, a.Cols)
	for i := range v {
		v[i] = float64(i%7) - 3
	}
	want := make([]float64, a.Rows)
	a.MulVec(v, want)
	vec, _ := json.Marshal(v)

	for _, tc := range []struct {
		name, bin   string
		quarantined int64
		diskHits    int64
	}{
		{"sequential combine", `{"bin":0,"rows":700,"groups":1,"kernel":31,"params":{"tpr":2,"ldsFactor":4,"reduction":"seq"}}`, 1, 0},
		{"rows per work-group", `{"bin":0,"rows":700,"groups":1,"kernel":9,"params":{"tpr":1,"rowsPerWG":64,"reduction":"tree"}}`, 1, 0},
		{"id past the space", `{"bin":0,"rows":700,"groups":1,"kernel":25,"params":{"tpr":2,"reduction":"wf"}}`, 1, 0},
		{"kept point", `{"bin":0,"rows":700,"groups":1,"kernel":15,"params":{"tpr":2,"reduction":"wf"}}`, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			persistPlan(t, dir, a, version, tc.bin)
			s, ts := newTestServer(t, func(c *Config) {
				c.Framework = fw
				c.Cache = plancache.Options{Dir: dir}
			})
			id := uploadMatrix(t, ts, a)
			resp, body := postSpMV(t, ts, fmt.Sprintf(`{"matrix":%q,"vector":%s}`, id, vec))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			var out struct {
				Result []float64 `json:"result"`
			}
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatal(err)
			}
			if i := sparse.FirstVecDiff(want, out.Result, 1e-9); i >= 0 {
				t.Fatalf("row %d: got %v, want %v", i, out.Result[i], want[i])
			}
			st := s.CacheStats()
			if st.Quarantined != tc.quarantined || st.DiskHits != tc.diskHits {
				t.Errorf("quarantined %d, disk hits %d; want %d, %d", st.Quarantined, st.DiskHits, tc.quarantined, tc.diskHits)
			}
		})
	}
}
