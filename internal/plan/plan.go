// Package plan reifies the framework's tuning decision as a first-class,
// serializable artifact. The paper's economic argument is that the predict
// path (feature extraction → stage-1 U → binning → stage-2 kernels) is paid
// once and amortized over many SpMV executions; a TuningPlan is the unit of
// that amortization — it can be cached, persisted, shipped between
// processes, and re-applied to any matrix with the same structure.
//
// The package is a leaf (it depends only on sparse, binning and kernels) so
// that internal/core can attach Plan/ExecutePlan methods to Framework and
// the serving layers can share the type without import cycles.
package plan

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"spmvtune/internal/binning"
	"spmvtune/internal/errdefs"
	"spmvtune/internal/kernels"
	"spmvtune/internal/sparse"
)

// fingerprintSalt versions the fingerprint scheme itself: bump it if the
// hashed fields ever change, so stale persisted plans can never collide
// with fresh ones.
const fingerprintSalt = "spmvtune-plan-fp1"

// Fingerprint returns a deterministic hex digest of the matrix *structure*
// (dimensions, row pointers, column indices — not the values). Tuning
// depends only on the sparsity pattern: every Table I feature and the
// binning layout are functions of structure, so two matrices with the same
// pattern and different values share one optimal plan. 128 bits of SHA-256
// keeps the key short enough for URLs and filenames.
func Fingerprint(a *sparse.CSR) string {
	h := sha256.New()
	h.Write([]byte(fingerprintSalt))
	// The stream is staged through one stack block: a hash call per index
	// cost more than the hashing.
	var buf [4096]byte
	n := 0
	next := func(size int) []byte {
		if n == len(buf) {
			h.Write(buf[:])
			n = 0
		}
		n += size
		return buf[n-size : n]
	}
	put := func(x int64) { binary.LittleEndian.PutUint64(next(8), uint64(x)) }
	put(int64(a.Rows))
	put(int64(a.Cols))
	put(int64(len(a.ColIdx)))
	for _, p := range a.RowPtr {
		put(p)
	}
	// Column indices are hashed 32-bit to halve the work; they are int32
	// in CSR storage already.
	for _, c := range a.ColIdx {
		binary.LittleEndian.PutUint32(next(4), uint32(c))
	}
	h.Write(buf[:n])
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}

// FormatVersion is the current plan-format version. Version 1 (and 0, the
// implicit version of every plan written before the field existed) is the
// pre-synthesis format: kernel IDs index the paper's nine-kernel pool and
// no space or parameter fields are present. Version 2 adds the kernel-space
// name and per-bin KernelParams. Decode accepts every version up to this
// one — older on-disk plans load into the degenerate pool subspace instead
// of being quarantined — and rejects newer ones loudly.
const FormatVersion = 2

// BinAssignment is one bin's slice of the plan: which kernel serves the
// rows that landed in this workload bin.
type BinAssignment struct {
	Bin        int    `json:"bin"`
	Rows       int    `json:"rows"`
	Groups     int    `json:"groups"`
	Kernel     int    `json:"kernel"`
	KernelName string `json:"kernelName,omitempty"`

	// Params is the kernel's point in parameter space (version >= 2 plans,
	// provenance for auditing and cross-process decoding). When present it
	// must match the space's canonical coordinates for Kernel — Validate
	// rejects the mismatch, so a corrupted assignment fails as a 400-class
	// error instead of silently executing a different kernel.
	Params *kernels.KernelParams `json:"params,omitempty"`
}

// TuningPlan is the full output of the predict path for one matrix
// structure: enough to re-execute the tuned SpMV without consulting the
// model again, and enough provenance (features, model version) to audit
// why the decision was made.
type TuningPlan struct {
	// Version is the plan-format version (see FormatVersion). Zero means a
	// pre-synthesis plan — the JSON predates the field — and decodes into
	// the degenerate pool subspace.
	Version int `json:"version,omitempty"`

	// Space names the kernel space the plan's kernel IDs index ("" = the
	// paper's pool). Execution resolves IDs through kernels.ByID, whose
	// superset enumeration keeps every space's IDs stable; the name is the
	// validation boundary (IDs must lie inside the named space).
	Space string `json:"space,omitempty"`

	// Fingerprint identifies the matrix structure this plan was derived
	// from (see Fingerprint). Plans are cached and persisted under it.
	Fingerprint string `json:"fingerprint"`
	// ModelVersion identifies the trained model that produced the plan, so
	// a model rollout can invalidate stale plans.
	ModelVersion string `json:"modelVersion,omitempty"`

	// Matrix shape at planning time; ExecutePlan re-checks these cheaply.
	Rows int `json:"rows"`
	Cols int `json:"cols"`
	NNZ  int `json:"nnz"`

	// The feature vector the model consumed, with attribute names, for
	// offline debugging of model decisions.
	FeatureNames []string  `json:"featureNames,omitempty"`
	Features     []float64 `json:"features,omitempty"`

	// The decision: binning granularity, bin-count cap, binning scheme
	// ("coarse" or "single") and the per-bin kernel assignments. A coarse
	// plan's MaxBins is at most max(binning.DefaultMaxBins, NNZ+1): a coarse
	// bin ID never exceeds NNZ/U, so no larger cap changes the binning, and
	// Validate rejects one because Rebin allocates per bin.
	U       int             `json:"u"`
	MaxBins int             `json:"maxBins"`
	Scheme  string          `json:"scheme"`
	Bins    []BinAssignment `json:"bins"`

	// Fallback records that the predict path failed (malformed model) and
	// the plan degraded to single-bin Kernel-Serial.
	Fallback bool `json:"fallback,omitempty"`

	// Profiles optionally carries the per-bin execution profiles of recent
	// guarded runs of this plan (see ExecProfile). They are evidence, not
	// decision state: Validate ignores them and execution never reads them.
	// Long-lived plans accumulate evidence via AppendProfiles, which caps
	// retention at MaxRetainedProfiles — unbounded growth on a cached plan
	// was a slow memory leak, and persisted plans ballooned with it.
	Profiles []ExecProfile `json:"profiles,omitempty"`
}

// MaxRetainedProfiles bounds TuningPlan.Profiles: AppendProfiles keeps at
// most this many entries, dropping the oldest first. The value covers
// several full guarded runs of a plan at the bin-count cap (profiles
// arrive one per bin per run) while keeping a cached or persisted plan a
// few tens of KB at worst.
const MaxRetainedProfiles = 256

// AppendProfiles appends execution evidence to the plan's profile ring:
// newest entries win, and retention is capped at MaxRetainedProfiles by
// discarding from the front (the oldest evidence). A batch larger than the
// cap keeps only its newest MaxRetainedProfiles entries.
func (p *TuningPlan) AppendProfiles(ps ...ExecProfile) {
	p.Profiles = AppendCappedProfiles(p.Profiles, ps...)
}

// AppendCappedProfiles is the profile ring behind AppendProfiles, exposed
// for holders of bare profile slices (the server's per-matrix evidence
// records) that need the same newest-wins retention cap.
func AppendCappedProfiles(dst []ExecProfile, ps ...ExecProfile) []ExecProfile {
	dst = append(dst, ps...)
	if drop := len(dst) - MaxRetainedProfiles; drop > 0 {
		// Shift in place rather than re-slicing so the backing array does
		// not pin the dropped entries (and their counter blocks) forever.
		n := copy(dst, dst[drop:])
		for i := n; i < len(dst); i++ {
			dst[i] = ExecProfile{}
		}
		dst = dst[:n]
	}
	return dst
}

// KernelByBin returns the per-bin kernel map in the form the execution
// layers consume.
func (p *TuningPlan) KernelByBin() map[int]int {
	m := make(map[int]int, len(p.Bins))
	for _, b := range p.Bins {
		m[b.Bin] = b.Kernel
	}
	return m
}

// KernelFor returns the kernel assigned to one bin without materializing
// the KernelByBin map — plans carry a handful of bins, so the linear scan
// is both faster and allocation-free on hot per-request execution paths.
func (p *TuningPlan) KernelFor(binID int) (int, bool) {
	for _, b := range p.Bins {
		if b.Bin == binID {
			return b.Kernel, true
		}
	}
	return 0, false
}

// Validate checks the internal consistency of a plan — decoded plans are
// untrusted input (they may come from disk or the network). Failures match
// errdefs.ErrInvalidMatrix.
func (p *TuningPlan) Validate() error {
	if p.Version < 0 || p.Version > FormatVersion {
		return errdefs.Invalidf("plan: format version %d not supported (this build reads <= %d)", p.Version, FormatVersion)
	}
	if p.Version < 2 && p.Space != "" {
		return errdefs.Invalidf("plan: version %d plan names kernel space %q (space needs version >= 2)", p.Version, p.Space)
	}
	space, err := kernels.SpaceByName(p.Space)
	if err != nil {
		return err
	}
	if p.Rows < 0 || p.Cols < 0 || p.NNZ < 0 {
		return errdefs.Invalidf("plan: negative shape %dx%d/%d", p.Rows, p.Cols, p.NNZ)
	}
	switch p.Scheme {
	case "coarse", "single":
	default:
		return errdefs.Invalidf("plan: unsupported scheme %q", p.Scheme)
	}
	if p.Scheme == "coarse" && (p.U < 1 || p.MaxBins < 1) {
		return errdefs.Invalidf("plan: coarse scheme needs U>=1 and MaxBins>=1, got U=%d MaxBins=%d", p.U, p.MaxBins)
	}
	// MaxBins-1 > NNZ is MaxBins > NNZ+1 without overflowing a huge NNZ.
	if p.Scheme == "coarse" && p.MaxBins > binning.DefaultMaxBins && p.MaxBins-1 > p.NNZ {
		return errdefs.Invalidf("plan: MaxBins %d above max(%d, NNZ+1) for NNZ=%d", p.MaxBins, binning.DefaultMaxBins, p.NNZ)
	}
	seen := make(map[int]bool, len(p.Bins))
	for _, b := range p.Bins {
		if b.Bin < 0 {
			return errdefs.Invalidf("plan: negative bin id %d", b.Bin)
		}
		if p.Scheme == "coarse" && b.Bin >= p.MaxBins {
			return errdefs.Invalidf("plan: bin %d outside cap %d", b.Bin, p.MaxBins)
		}
		if seen[b.Bin] {
			return errdefs.Invalidf("plan: bin %d assigned twice", b.Bin)
		}
		seen[b.Bin] = true
		// IDs are validated against the plan's declared space, not the
		// executor's superset: a pre-synthesis plan referencing a synthesized
		// ID is corrupt, not forward-compatible.
		if _, ok := space.ByID(b.Kernel); !ok {
			return errdefs.Invalidf("plan: bin %d uses kernel id %d outside space %q (%d kernels)",
				b.Bin, b.Kernel, space.Name, space.Size())
		}
		if b.Params != nil {
			if err := b.Params.Validate(); err != nil {
				return err
			}
			if want, ok := space.ParamsByID(b.Kernel); !ok || *b.Params != want {
				return errdefs.Invalidf("plan: bin %d params %+v do not match space %q kernel %d (%+v)",
					b.Bin, *b.Params, space.Name, b.Kernel, want)
			}
		}
	}
	return nil
}

// CheckMatrix verifies the cheap structural invariants between a plan and
// the matrix it is about to execute on: dimensions and non-zero count. The
// full fingerprint equality is the cache-key contract of the caller (the
// plan was stored under Fingerprint(a)); recomputing the hash on every
// execution would cost O(nnz) and defeat the amortization.
func (p *TuningPlan) CheckMatrix(a *sparse.CSR) error {
	if p.Rows != a.Rows || p.Cols != a.Cols || p.NNZ != a.NNZ() {
		return errdefs.Invalidf("plan: matrix shape %dx%d/%d does not match plan %dx%d/%d",
			a.Rows, a.Cols, a.NNZ(), p.Rows, p.Cols, p.NNZ)
	}
	return nil
}

// Rebin reconstructs the binning layout on the target matrix. Binning is a
// deterministic function of (structure, scheme, U, MaxBins), so the plan
// stores only the parameters; the reconstruction is verified to give every
// non-empty bin a kernel, so a stale or corrupted plan surfaces as a typed
// error instead of a wrong result.
func (p *TuningPlan) Rebin(a *sparse.CSR) (*binning.Binning, error) {
	var b *binning.Binning
	switch p.Scheme {
	case "single":
		b = binning.Single(a)
	case "coarse":
		b = binning.Coarse(a, p.U, p.MaxBins)
	default:
		return nil, errdefs.Invalidf("plan: unsupported scheme %q", p.Scheme)
	}
	for _, binID := range b.NonEmpty() {
		if _, ok := p.KernelFor(binID); !ok {
			return nil, errdefs.Invalidf("plan: non-empty bin %d has no kernel assignment (stale plan?)", binID)
		}
	}
	return b, nil
}

// Encode renders the plan as indented JSON.
func (p *TuningPlan) Encode() ([]byte, error) {
	return json.MarshalIndent(p, "", " ")
}

// Decode parses and validates a plan produced by Encode (or any JSON of
// the same shape). Malformed input matches errdefs.ErrInvalidMatrix.
func Decode(data []byte) (*TuningPlan, error) {
	var p TuningPlan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, errdefs.Invalidf("plan: parse: %v", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// String renders a compact one-line summary.
func (p *TuningPlan) String() string {
	return fmt.Sprintf("plan %s: %dx%d/%d U=%d %s %d bins (model %s)",
		p.Fingerprint, p.Rows, p.Cols, p.NNZ, p.U, p.Scheme, len(p.Bins), p.ModelVersion)
}
