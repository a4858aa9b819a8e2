package retrain

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"spmvtune/internal/binning"
	"spmvtune/internal/c50"
	"spmvtune/internal/core"
	"spmvtune/internal/errdefs"
	"spmvtune/internal/kernels"
	"spmvtune/internal/matgen"
	"spmvtune/internal/plan"
	"spmvtune/internal/sparse"
)

// Observation is one served request's execution evidence, as the serving
// layer hands it to the retrainer: the matrix, the plan coordinates the
// profiles were measured under, and the profiles themselves.
type Observation struct {
	Fingerprint  string
	ModelVersion string
	// A is the matrix the profiles were measured on; the exploration
	// policy needs it to simulate counterfactual kernels. Matrices are
	// resident in the server for as long as they serve traffic, so this
	// shares, not copies.
	A        *sparse.CSR
	Features []float64
	U        int
	MaxBins  int
	Scheme   string
	Fallback bool
	Degraded bool
	Profiles []plan.ExecProfile
	// Width is the batch width the serving layer fused this evidence at
	// (the coalescer's vector count; 0 or 1 for a plain single-vector
	// request). Profiles that record their own Vectors count override it
	// per row — an isolated vector re-served through the single-vector
	// chain is width-1 evidence even inside a wide observation.
	Width int
}

// usable reports whether the observation can label training rows: only
// clean coarse-scheme runs qualify. Degraded and fallback plans measure
// the failure path, not a kernel choice worth learning.
func (o Observation) usable() bool {
	return o.Scheme == "coarse" && !o.Fallback && !o.Degraded &&
		o.A != nil && len(o.Features) > 0 && len(o.Profiles) > 0 && o.U >= 1
}

// Config configures a Service. Framework and Store are required; zero
// values elsewhere select production defaults.
type Config struct {
	// Framework is the live runtime the service observes and promotes
	// into: its Cfg supplies the feature/search space, its Model() is the
	// incumbent every candidate must beat.
	Framework *core.Framework
	// Store is the row log observations append to and retraining reads.
	Store *Store

	// Interval is the retrain period of Run; <= 0 selects 5 minutes.
	Interval time.Duration
	// MinRows is the row count below which a retrain pass is skipped
	// (too little evidence to fit a tree worth gating); <= 0 selects 64.
	MinRows int
	// ExploreRate is the probability, per usable observation, of
	// simulating one counterfactual kernel on one of its bins and logging
	// the result as an exploration row. 0 disables exploration; values are
	// clamped to [0, 1]. Exploration runs on the retrainer's goroutine
	// (never the request path) and costs one single-bin device simulation.
	ExploreRate float64
	// Seed makes the whole loop deterministic: exploration sampling and
	// label-noise injection derive from it. 0 selects 1.
	Seed int64
	// Holdout is the regret corpus the promotion gate evaluates candidates
	// on; nil selects DefaultHoldout(). Operators refresh it by supplying
	// matrices representative of their production traffic.
	Holdout []*sparse.CSR
	// RegretSlack is how much worse (fractionally) a candidate's geo-mean
	// regret may be than the incumbent's and still promote; negative
	// selects 0.01. The default tolerates tie-breaking jitter between
	// equally good trees without letting a genuinely worse model ship.
	RegretSlack float64
	// TreeOpts configures candidate training; nil selects
	// c50.DefaultOptions().
	TreeOpts *c50.Options
	// QueueDepth bounds pending observations between Observe and the Run
	// loop; overflow drops (and counts) the newest. <= 0 selects 256.
	QueueDepth int
	// Synchronous makes Observe ingest inline instead of enqueueing —
	// for tests and offline replay, where deterministic ordering matters
	// more than request-path latency.
	Synchronous bool

	// Promote is called with each gated-in candidate. Nil selects the
	// framework hot-swap alone; the server installs a callback that also
	// bumps the plan cache's model version so stale plans re-tune.
	Promote func(m *core.Model, version string)
	// TrainHook runs at the start of every retrain pass; a non-nil error
	// fails the pass. The chaos harness injects faults and panics here.
	TrainHook func(ctx context.Context) error
	// Logf receives progress lines; nil is silent.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 5 * time.Minute
	}
	if c.MinRows <= 0 {
		c.MinRows = 64
	}
	if c.ExploreRate < 0 {
		c.ExploreRate = 0
	}
	if c.ExploreRate > 1 {
		c.ExploreRate = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Holdout == nil {
		c.Holdout = DefaultHoldout()
	}
	if c.RegretSlack < 0 {
		c.RegretSlack = 0.01
	}
	if c.TreeOpts == nil {
		opts := c50.DefaultOptions()
		c.TreeOpts = &opts
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// DefaultHoldout is the built-in regret corpus: a small deterministic
// matgen sweep, seeded differently from spmvd's bootstrap-training corpus
// so the gate never scores a candidate on its own training matrices. The
// gate's regret reads structure only, so the matrices carry no values.
func DefaultHoldout() []*sparse.CSR {
	return matgen.Matrices(matgen.ValueFreeCorpus(matgen.CorpusOptions{N: 8, MinRows: 200, MaxRows: 900, Seed: 7}))
}

// Stats is a snapshot of the service counters.
type Stats struct {
	Observations int64 // usable observations ingested
	SkippedObs   int64 // degraded/fallback/non-coarse observations ignored
	DroppedObs   int64 // queue-overflow drops
	Rows         int64 // training rows ingested (including exploration)
	ExploreRows  int64 // counterfactual rows from the exploration policy
	StoreErrors  int64 // row-store append failures

	Runs       int64 // retrain passes started
	Promotions int64 // candidates that passed the regret gate
	Rejected   int64 // candidates the gate refused
	Unchanged  int64 // passes whose candidate hashed identical to the incumbent
	Skipped    int64 // passes skipped (insufficient rows / untrainable)
	Errors     int64 // passes that failed (hook error, panic)

	Generation int64 // promotions since start; the model-version gauge

	// LastCandidateRegret and LastIncumbentRegret are the geo-mean regrets
	// of the most recent gate evaluation (0 until a pass reaches the gate);
	// ModelRegret is the held-out geo-mean regret of the model currently
	// being served, refreshed at every gate evaluation (the value /metrics
	// exposes as spmvd_model_regret; 0 until a pass reaches the gate).
	LastCandidateRegret float64
	LastIncumbentRegret float64
	ModelRegret         float64

	Store StoreStats
}

// Result reports one retrain pass.
type Result struct {
	Outcome string // "promoted", "rejected", "unchanged", "skipped"
	Reason  string
	Version string // candidate's model version (when trained)

	Rows          int // rows the pass read
	Stage1Samples int
	Stage2Samples int

	Candidate core.Regret
	Incumbent core.Regret
}

// Service is the online learning loop: it ingests observations into the
// row store (with exploration), periodically retrains a candidate model,
// gates it on held-out regret, and promotes winners into the live
// framework. One Service per Framework.
type Service struct {
	cfg Config

	queue chan Observation

	rngMu sync.Mutex
	rng   *rand.Rand

	trainMu  sync.Mutex // one retrain pass at a time
	runSeq   int64
	noiseBit atomic.Uint64 // label-noise rate (Float64bits), test/chaos knob
	promote  atomic.Pointer[func(m *core.Model, version string)]

	observations, skippedObs, droppedObs atomic.Int64
	rows, exploreRows, storeErrors       atomic.Int64
	runs, promotions, rejected           atomic.Int64
	unchanged, skippedRuns, errs         atomic.Int64
	generation                           atomic.Int64
	lastCand, lastInc, servedRegret      atomic.Uint64 // Float64bits
}

// New builds a Service. Framework and Store are required.
func New(cfg Config) (*Service, error) {
	if cfg.Framework == nil {
		return nil, fmt.Errorf("retrain: Config.Framework is required")
	}
	if cfg.Store == nil {
		return nil, fmt.Errorf("retrain: Config.Store is required")
	}
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:   cfg,
		queue: make(chan Observation, cfg.QueueDepth),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
	if cfg.Promote != nil {
		s.promote.Store(&cfg.Promote)
	}
	return s, nil
}

// SetPromote replaces the promotion callback. The serving layer uses it to
// register its hot-swap + cache-invalidation hook after both the service
// and the server exist (the two reference each other).
func (s *Service) SetPromote(fn func(m *core.Model, version string)) {
	if fn == nil {
		s.promote.Store(nil)
		return
	}
	s.promote.Store(&fn)
}

// SetLabelNoise sets the probability that a stage-2 training label is
// flipped to a random wrong kernel during the next passes. This exists
// for tests and the chaos harness to manufacture deliberately degraded
// candidates; the promotion gate must reject them. Production never sets
// it.
func (s *Service) SetLabelNoise(rate float64) {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	s.noiseBit.Store(math.Float64bits(rate))
}

// Observe hands one request's execution evidence to the service. In the
// default asynchronous mode it enqueues (dropping, and counting, on
// overflow — backpressure must never reach the request path); in
// Synchronous mode it ingests inline.
func (s *Service) Observe(o Observation) {
	if !o.usable() {
		s.skippedObs.Add(1)
		return
	}
	// Snapshot the profiles: the server mutates its own record after the
	// handler returns, and ingest may run on another goroutine.
	o.Profiles = append([]plan.ExecProfile(nil), o.Profiles...)
	if s.cfg.Synchronous {
		s.Ingest(o)
		return
	}
	select {
	case s.queue <- o:
	default:
		s.droppedObs.Add(1)
	}
}

// Ingest converts one observation into training rows (plus, with
// probability ExploreRate, one counterfactual exploration row) and
// appends them to the store.
func (s *Service) Ingest(o Observation) {
	if !o.usable() {
		s.skippedObs.Add(1)
		return
	}
	s.observations.Add(1)
	var rows []Row
	for _, pr := range o.Profiles {
		// Only simulated kernel launches carry a modeled cost; the CPU
		// reference (Kernel < 0) never touches the simulator.
		if pr.Kernel < 0 || pr.Cycles <= 0 || pr.Seconds <= 0 || pr.Rows < 1 {
			continue
		}
		avgLen := 0.0
		if pr.Rows > 0 {
			avgLen = float64(pr.NNZ) / float64(pr.Rows)
		}
		u := o.U
		if pr.U >= 1 {
			u = pr.U
		}
		// The launch's own fused vector count wins over the observation's
		// width: a vector isolated out of a fused batch is re-measured
		// through the single-vector chain and must label B=1 groups.
		width := pr.Vectors
		if width < 1 {
			width = o.Width
		}
		if width <= 1 {
			width = 0 // canonical single-vector encoding (field omitted)
		}
		rows = append(rows, Row{
			Fingerprint:  o.Fingerprint,
			ModelVersion: o.ModelVersion,
			Features:     o.Features,
			U:            u,
			Bin:          pr.Bin,
			BinRows:      pr.Rows,
			BinAvgLen:    avgLen,
			Kernel:       pr.Kernel,
			Cycles:       pr.Cycles,
			Seconds:      pr.Seconds,
			Width:        width,
		})
	}
	if len(rows) == 0 {
		return
	}
	if ex, ok := s.explore(o, rows); ok {
		rows = append(rows, ex)
		s.exploreRows.Add(1)
	}
	if err := s.cfg.Store.Append(rows...); err != nil {
		s.storeErrors.Add(1)
		s.cfg.Logf("retrain: append %d rows: %v", len(rows), err)
		return
	}
	s.rows.Add(int64(len(rows)))
}

// explore implements the counterfactual sampling policy: with probability
// ExploreRate, pick one of the observation's bins and one kernel the plan
// did not choose, simulate it on that bin, and return the measurement as
// an exploration row. Without this, traffic served by a confident
// incumbent only ever re-confirms the incumbent's choices — the
// aggregated labels would have a single candidate per group and retraining
// could never discover a better kernel.
func (s *Service) explore(o Observation, observed []Row) (Row, bool) {
	if s.cfg.ExploreRate <= 0 {
		return Row{}, false
	}
	s.rngMu.Lock()
	roll := s.rng.Float64()
	pick := s.rng.Intn(len(observed))
	altRoll := s.rng.Intn(len(kernels.Pool()) - 1)
	s.rngMu.Unlock()
	if roll >= s.cfg.ExploreRate {
		return Row{}, false
	}
	base := observed[pick]
	alt := altRoll
	if alt >= base.Kernel {
		alt++ // skip the observed kernel: counterfactuals must differ
	}
	info, ok := kernels.ByID(alt)
	if !ok {
		return Row{}, false
	}
	// Rebuild the plan's binning and simulate the alternative kernel on the
	// picked row's bin (or, if that bin is empty in the rebuilt binning, the
	// first populated one — the row then carries the coordinates of the bin
	// actually measured).
	b := binning.Coarse(o.A, base.U, o.MaxBins)
	bin := base.Bin
	if bin >= len(b.Bins) || len(b.Bins[bin]) == 0 {
		ne := b.NonEmpty()
		if len(ne) == 0 {
			return Row{}, false
		}
		bin = ne[0]
	}
	v := make([]float64, o.A.Cols)
	u := make([]float64, o.A.Rows)
	st := core.SimulateKernel(s.cfg.Framework.Cfg.Device, o.A, v, u, info.Kernel, b.Bins[bin])
	if st.Cycles <= 0 || st.Seconds <= 0 {
		return Row{}, false
	}
	binRows := b.NumRows(bin)
	nnz := 0
	for _, g := range b.Bins[bin] {
		for r := g.Start; r < g.Start+g.Count; r++ {
			nnz += o.A.RowLen(int(r))
		}
	}
	ex := base
	ex.Kernel = alt
	ex.Bin = bin
	ex.BinRows = binRows
	if binRows > 0 {
		ex.BinAvgLen = float64(nnz) / float64(binRows)
	}
	ex.Cycles = st.Cycles
	ex.Seconds = st.Seconds
	ex.Explore = true
	ex.ModelVersion = ""
	ex.Width = 0 // the counterfactual is simulated single-vector
	return ex, true
}

// RetrainOnce runs one full retrain pass: load rows → aggregate → train a
// candidate → gate on held-out regret → promote or reject. It is
// serialized (one pass at a time), panic-contained, and deterministic for
// a given store content and pass number.
func (s *Service) RetrainOnce(ctx context.Context) (res Result, err error) {
	s.trainMu.Lock()
	defer s.trainMu.Unlock()
	s.runs.Add(1)
	s.runSeq++
	defer func() {
		if rec := recover(); rec != nil {
			s.errs.Add(1)
			res, err = Result{}, errdefs.Panicf("retrain: pass panicked: %v", rec)
		}
	}()
	if hook := s.cfg.TrainHook; hook != nil {
		if herr := hook(ctx); herr != nil {
			s.errs.Add(1)
			return Result{}, herr
		}
	}
	if err := ctx.Err(); err != nil {
		s.errs.Add(1)
		return Result{}, errdefs.Canceled(err)
	}

	rows, err := s.cfg.Store.Load()
	if err != nil {
		s.errs.Add(1)
		return Result{}, err
	}
	res.Rows = len(rows)
	if len(rows) < s.cfg.MinRows {
		s.skippedRuns.Add(1)
		res.Outcome, res.Reason = "skipped", fmt.Sprintf("%d rows < MinRows %d", len(rows), s.cfg.MinRows)
		return res, nil
	}

	coreCfg := s.cfg.Framework.Cfg
	ts := Aggregate(coreCfg, rows)
	res.Stage1Samples, res.Stage2Samples = ts.Stage1.Len(), ts.Stage2.Len()
	if ts.Stage2.Len() == 0 {
		s.skippedRuns.Add(1)
		res.Outcome, res.Reason = "skipped", "no stage-2 samples after aggregation"
		return res, nil
	}

	// Deliberate degradation knob (tests/chaos): with the configured
	// probability per sample, relabel with the group's most expensive
	// observed kernel — cost-inverting noise that reliably produces a
	// candidate the gate must reject (uniform random flips tend to collapse
	// into a harmless majority-class model). Seeded per pass so runs replay.
	if noise := math.Float64frombits(s.noiseBit.Load()); noise > 0 {
		rng := rand.New(rand.NewSource(s.cfg.Seed + s.runSeq))
		for i := range ts.Stage2.Y {
			if rng.Float64() < noise {
				ts.Stage2.Y[i] = ts.WorstKernels[i]
			}
		}
	}

	incumbent := s.cfg.Framework.Model()
	candidate := &core.Model{
		Us:       coreCfg.Us,
		MaxBins:  coreCfg.MaxBins,
		Extended: coreCfg.ExtendedFeatures,
		Stage2:   c50.Train(ts.Stage2, *s.cfg.TreeOpts),
	}
	// Stage 1 needs cross-granularity evidence, which production traffic
	// rarely supplies (each matrix is served at its predicted U). With
	// enough evidence the stage retrains; otherwise the incumbent's
	// stage-1 tree carries over — model surgery, not a gate bypass: the
	// assembled candidate is still gated as a whole.
	if ts.Stage1.Len() >= 2 && distinctClasses(ts.Stage1) >= 2 {
		candidate.Stage1 = c50.Train(ts.Stage1, *s.cfg.TreeOpts)
	} else if incumbent != nil {
		candidate.Stage1 = incumbent.Stage1
	} else {
		s.skippedRuns.Add(1)
		res.Outcome, res.Reason = "skipped", "no stage-1 evidence and no incumbent to inherit from"
		return res, nil
	}

	res.Version = core.ModelVersion(candidate)
	if res.Version == core.ModelVersion(incumbent) {
		s.unchanged.Add(1)
		res.Outcome = "unchanged"
		return res, nil
	}

	// The promotion gate: a candidate ships only if its held-out regret is
	// no worse than the incumbent's (within RegretSlack). A nil incumbent
	// has infinite regret, so the first trained model always gates in.
	res.Incumbent = core.EvaluateRegret(coreCfg, incumbent, s.cfg.Holdout)
	res.Candidate = core.EvaluateRegret(coreCfg, candidate, s.cfg.Holdout)
	s.lastInc.Store(math.Float64bits(res.Incumbent.GeoMean))
	s.lastCand.Store(math.Float64bits(res.Candidate.GeoMean))
	if res.Candidate.N == 0 ||
		res.Candidate.GeoMean > res.Incumbent.GeoMean*(1+s.cfg.RegretSlack) {
		s.rejected.Add(1)
		if !math.IsInf(res.Incumbent.GeoMean, 1) {
			s.servedRegret.Store(math.Float64bits(res.Incumbent.GeoMean))
		}
		res.Outcome = "rejected"
		res.Reason = fmt.Sprintf("candidate regret %.4f vs incumbent %.4f (slack %.2f%%)",
			res.Candidate.GeoMean, res.Incumbent.GeoMean, 100*s.cfg.RegretSlack)
		s.cfg.Logf("retrain: %s", res.Reason)
		return res, nil
	}

	s.promotions.Add(1)
	s.generation.Add(1)
	s.servedRegret.Store(math.Float64bits(res.Candidate.GeoMean))
	res.Outcome = "promoted"
	if fn := s.promote.Load(); fn != nil {
		(*fn)(candidate, res.Version)
	} else {
		s.cfg.Framework.SwapModel(candidate)
	}
	s.cfg.Logf("retrain: promoted model %s (regret %.4f, incumbent %.4f, %d rows, %d stage-2 samples)",
		res.Version, res.Candidate.GeoMean, res.Incumbent.GeoMean, res.Rows, res.Stage2Samples)
	return res, nil
}

// distinctClasses counts the label classes present in a dataset.
func distinctClasses(d *c50.Dataset) int {
	n := 0
	for _, c := range d.ClassCounts() {
		if c > 0 {
			n++
		}
	}
	return n
}

// Run is the background loop: it ingests queued observations and fires a
// retrain pass every Interval, until ctx is canceled — then it drains the
// queue and flushes the store so pending rows survive the shutdown.
func (s *Service) Run(ctx context.Context) {
	t := time.NewTicker(s.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			s.Drain()
			return
		case o := <-s.queue:
			s.Ingest(o)
		case <-t.C:
			if res, err := s.RetrainOnce(ctx); err != nil {
				s.cfg.Logf("retrain: pass failed: %v", err)
			} else if res.Outcome != "" {
				s.cfg.Logf("retrain: pass %s (%s)", res.Outcome, res.Reason)
			}
		}
	}
}

// Drain ingests every queued observation and flushes the row store — the
// SIGTERM path, called by Run on cancellation and by spmvd directly when
// the service runs without a loop.
func (s *Service) Drain() error {
	for {
		select {
		case o := <-s.queue:
			s.Ingest(o)
		default:
			return s.cfg.Store.Flush()
		}
	}
}

// Generation returns the number of promotions so far — the monotone gauge
// /metrics exposes as spmvd_model_version.
func (s *Service) Generation() int64 { return s.generation.Load() }

// Stats returns a snapshot of the service counters.
func (s *Service) Stats() Stats {
	return Stats{
		Observations:        s.observations.Load(),
		SkippedObs:          s.skippedObs.Load(),
		DroppedObs:          s.droppedObs.Load(),
		Rows:                s.rows.Load(),
		ExploreRows:         s.exploreRows.Load(),
		StoreErrors:         s.storeErrors.Load(),
		Runs:                s.runs.Load(),
		Promotions:          s.promotions.Load(),
		Rejected:            s.rejected.Load(),
		Unchanged:           s.unchanged.Load(),
		Skipped:             s.skippedRuns.Load(),
		Errors:              s.errs.Load(),
		Generation:          s.generation.Load(),
		LastCandidateRegret: math.Float64frombits(s.lastCand.Load()),
		LastIncumbentRegret: math.Float64frombits(s.lastInc.Load()),
		ModelRegret:         math.Float64frombits(s.servedRegret.Load()),
		Store:               s.cfg.Store.Stats(),
	}
}
