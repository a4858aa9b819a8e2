package plan

import (
	"errors"
	"testing"

	"spmvtune/internal/errdefs"
)

// FuzzPlanDecode drives arbitrary bytes through the plan decoding boundary —
// the path every persisted or shipped plan crosses before execution. The
// invariant: Decode never panics, every rejection is a typed 400-class
// errdefs.ErrInvalidMatrix (the serving layer maps untyped errors to 500s),
// and every accepted plan is internally consistent — it re-validates and
// round-trips through Encode. Corrupt KernelParams (unknown reductions,
// absurd TPRs, coordinates that contradict the kernel ID) must all land on
// the typed-rejection side.
func FuzzPlanDecode(f *testing.F) {
	f.Add([]byte(v1Blob))
	f.Add([]byte(`{"version":2,"space":"synth","scheme":"single","rows":1,"cols":1,"nnz":1,` +
		`"bins":[{"bin":0,"kernel":9,"params":{"tpr":1,"rowsPerWG":64,"reduction":"tree"}}]}`))
	f.Add([]byte(`{"version":2,"space":"pool","scheme":"coarse","u":10,"maxBins":10,"bins":[{"bin":1,"kernel":8}]}`))
	f.Add([]byte(`{"version":2,"space":"synth","scheme":"single","bins":[{"bin":0,"kernel":9,"params":{"tpr":2,"reduction":"warp"}}]}`))
	f.Add([]byte(`{"version":2,"space":"synth","scheme":"single","bins":[{"bin":0,"kernel":9,"params":{"tpr":1048576,"reduction":"tree"}}]}`))
	f.Add([]byte(`{"version":2,"space":"synth","scheme":"single","bins":[{"bin":0,"kernel":0,"params":{"tpr":64,"ldsFactor":8,"reduction":"seq"}}]}`))
	f.Add([]byte(`{"scheme":"coarse","u":10,"maxBins":1099511627776,"rows":100,"cols":100,"nnz":460,"bins":[{"bin":0,"kernel":0}]}`))
	f.Add([]byte(`{"version":99}`))
	f.Add([]byte(`{"space":"synth"}`))
	f.Add([]byte(`{`))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		if err != nil {
			if !errors.Is(err, errdefs.ErrInvalidMatrix) {
				t.Fatalf("rejection not classified invalid: %v", err)
			}
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted plan fails re-validation: %v", err)
		}
		blob, err := p.Encode()
		if err != nil {
			t.Fatalf("accepted plan does not encode: %v", err)
		}
		if _, err := Decode(blob); err != nil {
			t.Fatalf("accepted plan does not round-trip: %v", err)
		}
	})
}
