package kernels

import (
	"fmt"
	"hash/fnv"
	"sync"

	"spmvtune/internal/errdefs"
)

// This file is the parameterized kernel space: every candidate is a
// KernelParams point in threads-per-row × LDS-tiling × reduction-strategy
// space, and the paper's fixed nine-kernel pool is the prefix of every
// enumeration (IDs 0..8 are the named points poolParams lists, with their
// historical names, so every pool label and golden test still anchors
// correctness). The auto-tuner searches a Space — "pool" for the paper's
// nine points, "synth" for the pool plus the points the census keeps — and
// the stage-2 model predicts a point of that space (a learned
// quantization: each class label is one enumerated KernelParams).

const (
	// ldsFactor is the paper's local-memory buffering multiple ("we set the
	// size of local memory to be factor times of the workgroup size",
	// factor=4 in Algorithms 4 and 5): each lane stages ldsFactor products
	// per round.
	ldsFactor = 4
	// vectorTPR is Kernel-Vector's threads per row: the paper's 256-thread
	// work-group, clamped at launch to the device's work-group size.
	vectorTPR = 256
)

// Reduction selects how a subvector combines its LDS-staged products.
type Reduction uint8

const (
	// ReduceTree is the paper's segmented parallel reduction: log2(chunk)
	// strided LDS steps with two barriers per round (Algorithm 4).
	ReduceTree Reduction = iota
	// ReduceWavefront keeps each lane's partial products in registers and
	// combines them with log2(TPR) cross-lane permute steps at the end of
	// the row — no LDS staging, no barriers, no per-round overhead at all
	// (the LightSpMV-style warp/wavefront-synchronous CSR-vector scheme).
	// Only realizable when the subvector fits one wavefront (the lanes must
	// execute in lock-step); wider points degrade to the tree reduction.
	ReduceWavefront
)

// String implements fmt.Stringer.
func (r Reduction) String() string {
	if r == ReduceWavefront {
		return "wf"
	}
	return "tree"
}

// MarshalJSON renders the reduction as its short name.
func (r Reduction) MarshalJSON() ([]byte, error) {
	return []byte(`"` + r.String() + `"`), nil
}

// UnmarshalJSON accepts exactly the names String renders ("tree", "wf");
// anything else is a typed invalid-input error, so corrupt persisted plans
// surface as 400-class failures instead of silently defaulting.
func (r *Reduction) UnmarshalJSON(data []byte) error {
	switch string(data) {
	case `"tree"`:
		*r = ReduceTree
	case `"wf"`:
		*r = ReduceWavefront
	default:
		return errdefs.Invalidf("kernels: unknown reduction %s", data)
	}
	return nil
}

// KernelParams is one point of the parameterized kernel space. A launch
// packs the device's work-group with rows (MaxWorkGroupSize/TPR of them),
// and the zero LDSFactor means the paper's factor 4, which keeps the
// canonical pool points device-agnostic.
type KernelParams struct {
	// TPR is the number of work-items cooperating on one row: 1 selects the
	// serial lock-step walk, >= 2 a subvector scheme (the full work-group
	// size makes it the vector kernel).
	TPR int `json:"tpr"`
	// LDSFactor is the local-memory buffering multiple (products staged per
	// lane per round); 0 = the paper's factor 4. Meaningless for TPR=1 and
	// for the wavefront reduction, which never stage through LDS.
	LDSFactor int `json:"ldsFactor,omitempty"`
	// Reduction is the staged-product combine strategy; TPR=1 ignores it.
	Reduction Reduction `json:"reduction"`
}

// Name renders the canonical synthesized-kernel name for the point. The
// "rd" tag (rows per work-group: device default) is kept from when that was
// a coordinate of the space: names are class labels of trained models.
func (p KernelParams) Name() string {
	if p.TPR <= 1 {
		return "synth.t1.rd"
	}
	if p.Reduction == ReduceWavefront {
		// The wavefront combine never stages through LDS, so the tiling
		// factor is not part of the point's identity.
		return fmt.Sprintf("synth.t%d.rd.wf", p.TPR)
	}
	return fmt.Sprintf("synth.t%d.rd.f%d.%s", p.TPR, p.ldsFactor(), p.Reduction)
}

func (p KernelParams) ldsFactor() int {
	if p.LDSFactor > 0 {
		return p.LDSFactor
	}
	return ldsFactor
}

// Validate rejects parameter points outside the representable space —
// decoded plans carry untrusted params. Failures are 400-class
// (errdefs.ErrInvalidMatrix).
func (p KernelParams) Validate() error {
	if p.TPR < 1 || p.TPR > 1024 {
		return errdefs.Invalidf("kernels: params TPR %d outside [1, 1024]", p.TPR)
	}
	if p.LDSFactor < 0 || p.LDSFactor > 64 {
		return errdefs.Invalidf("kernels: params LDSFactor %d outside [0, 64]", p.LDSFactor)
	}
	if p.Reduction != ReduceTree && p.Reduction != ReduceWavefront {
		return errdefs.Invalidf("kernels: params unknown reduction %d", p.Reduction)
	}
	return nil
}

// MaxSpaceKernels bounds a Space: the search's pruned-kernel bitmask and
// the cost cache's per-entry mask are uint64, so a space may enumerate at
// most 64 points.
const MaxSpaceKernels = 64

// Space is one searchable kernel enumeration: Infos in ID order with the
// aligned parameter annotation for each point. Spaces are immutable once
// built — callers must not mutate the slices.
type Space struct {
	// Name is the space's registry key ("pool", "synth").
	Name string
	// Infos are the space's kernels in ID order. For every built-in space
	// IDs 0..len(Pool())-1 are exactly the paper's pool — same points, same
	// names — so pool labels stay valid in every space.
	Infos []Info
	// Params annotates each ID with its point in parameter space; pool
	// entries carry their canonical (device-default) coordinates.
	Params []KernelParams
}

// Size returns the number of kernels the space enumerates.
func (s *Space) Size() int { return len(s.Infos) }

// ByID returns the space's kernel with the given ID, or false.
func (s *Space) ByID(id int) (Info, bool) {
	if id < 0 || id >= len(s.Infos) {
		return Info{}, false
	}
	return s.Infos[id], true
}

// ParamsByID returns the parameter point behind the given ID, or false.
func (s *Space) ParamsByID(id int) (KernelParams, bool) {
	if id < 0 || id >= len(s.Params) {
		return KernelParams{}, false
	}
	return s.Params[id], true
}

// Fingerprint digests the space's parameter points (FNV-1a over size and
// per-ID coordinates). The search's cost-cache keys mix it in, so two
// spaces differing in any point — even a single kernel's LDS tiling —
// can never collide on a cached cell. Each point still hashes a zero where
// its rows-per-work-group coordinate was, so the pool's fingerprint, and
// with it every pool-space cache key, is the one it always was.
func (s *Space) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x int) {
		for i := range buf {
			buf[i] = byte(x >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(len(s.Params))
	for _, p := range s.Params {
		put(p.TPR)
		put(0)
		put(p.LDSFactor)
		put(int(p.Reduction))
	}
	return h.Sum64()
}

// poolParams returns the canonical parameter coordinates of the paper's
// nine pool kernels, aligned with Pool() IDs.
func poolParams() []KernelParams {
	ps := []KernelParams{{TPR: 1}}
	for _, x := range []int{2, 4, 8, 16, 32, 64, 128} {
		ps = append(ps, KernelParams{TPR: x, LDSFactor: ldsFactor})
	}
	return append(ps, KernelParams{TPR: vectorTPR, LDSFactor: ldsFactor})
}

// NewSpace builds a space from explicit parameter points, each named after
// its parameters. It exists separately from the built-in spaces so tests can
// probe adversarial ones. Panics when the enumeration exceeds
// MaxSpaceKernels.
func NewSpace(name string, params []KernelParams) *Space {
	return (&Space{Name: name}).extend(params)
}

// poolPrefixSpace builds name's space as the pool (names untouched)
// followed by the extra points.
func poolPrefixSpace(name string, extra []KernelParams) *Space {
	return (&Space{Name: name, Infos: Pool(), Params: poolParams()}).extend(extra)
}

func (s *Space) extend(params []KernelParams) *Space {
	for _, p := range params {
		s.Infos = append(s.Infos, Info{ID: len(s.Infos), Name: p.Name(), Kernel: Kernel{P: p}})
		s.Params = append(s.Params, p)
	}
	if len(s.Infos) > MaxSpaceKernels {
		panic(fmt.Sprintf("kernels: space %q enumerates %d > %d kernels", s.Name, len(s.Infos), MaxSpaceKernels))
	}
	return s
}

// synthExtraParams enumerates the synthesized tail of the "synth" space:
// the points of the regions the fixed pool cannot reach that win a search
// cell by at least 1 % against the pool (`experiments -exp census`,
// EXPERIMENTS.md). The order is fixed — IDs are class labels, so
// reordering would silently relabel trained models.
func synthExtraParams() []KernelParams {
	// LDS tiling above the paper's factor 4: doubled, and maxed out. Factor
	// 16 is the LDS capacity ceiling at the default work-group size (32 KiB
	// / 8 B per product / 256 lanes), so a long row pays the two-barrier
	// reduction overhead a quarter as often. (Halved tiling was probed and
	// dominated everywhere: staging work is invariant to the factor, so
	// shrinking it only adds rounds.)
	ps := []KernelParams{
		{TPR: 4, LDSFactor: 16},
		{TPR: 8, LDSFactor: 8}, {TPR: 8, LDSFactor: 16},
		{TPR: 16, LDSFactor: 8}, {TPR: 16, LDSFactor: 16},
		{TPR: 128, LDSFactor: 8},
	}
	// Wavefront-synchronous combine: no LDS staging, no barriers, one
	// log2(x) cross-lane pass per row. Enumerated only up to the narrowest
	// wavefront any supported device ships (32) times two — wider points
	// degrade to the tree on such devices and would alias pool charging.
	for _, x := range []int{2, 4, 8, 16, 32, 64} {
		ps = append(ps, KernelParams{TPR: x, Reduction: ReduceWavefront})
	}
	return ps
}

var (
	poolSpaceOnce  sync.Once
	poolSpaceVal   *Space
	synthSpaceOnce sync.Once
	synthSpaceVal  *Space
)

// PoolSpace returns the degenerate space holding exactly the paper's
// nine-kernel pool — the anchor every equivalence and golden test keys on.
func PoolSpace() *Space {
	poolSpaceOnce.Do(func() { poolSpaceVal = poolPrefixSpace("pool", nil) })
	return poolSpaceVal
}

// SynthSpace returns the parameterized space: the pool prefix plus the
// synthesized enumeration of synthExtraParams.
func SynthSpace() *Space {
	synthSpaceOnce.Do(func() { synthSpaceVal = poolPrefixSpace("synth", synthExtraParams()) })
	return synthSpaceVal
}

// SpaceByName resolves a kernel-space name: "" and "pool" select the
// nine-kernel pool, "synth" the parameterized superset. Unknown names are
// 400-class errors (they arrive from flags and persisted plans).
func SpaceByName(name string) (*Space, error) {
	switch name {
	case "", "pool":
		return PoolSpace(), nil
	case "synth":
		return SynthSpace(), nil
	default:
		return nil, errdefs.Invalidf("kernels: unknown kernel space %q (want pool or synth)", name)
	}
}
