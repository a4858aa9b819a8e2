package spmvtune

import (
	"spmvtune/internal/core"
	"spmvtune/internal/plan"
	"spmvtune/internal/plancache"
	"spmvtune/internal/server"
)

// Serving surface ---------------------------------------------------------
// The plan/cache/server layer behind cmd/spmvd, re-exported so library
// users embedding the daemon never import internal packages. See DESIGN.md
// §7 for the architecture.

type (
	// TuningPlan is the reified tuning decision for one matrix structure:
	// features, chosen U, binning layout and per-bin kernels, ready to be
	// cached, serialized, and executed via Framework.ExecutePlanOpts.
	TuningPlan = plan.TuningPlan
	// BinAssignment is one bin's row population and chosen kernel.
	BinAssignment = plan.BinAssignment

	// PlanCacheOptions sizes the sharded plan cache (capacity, shards,
	// TTL, optional persistence directory).
	PlanCacheOptions = plancache.Options
	// PlanCacheStats is a point-in-time snapshot of cache counters.
	PlanCacheStats = plancache.Stats
	// PlanCache is a sharded LRU of tuning plans keyed by matrix
	// fingerprint, with singleflight deduplication of concurrent tuning.
	PlanCache = plancache.Cache

	// ServerConfig configures the SpMV serving daemon (framework, worker
	// pool, deadlines, body/batch limits, plan cache).
	ServerConfig = server.Config
	// Server is the HTTP handler implementing the spmvd JSON API.
	Server = server.Server
)

// PlanFingerprint returns the deterministic structural fingerprint of a
// matrix — the plan-cache key. It covers the sparsity pattern only, so
// matrices differing just in values share tuning plans.
func PlanFingerprint(a *Matrix) string { return plan.Fingerprint(a) }

// DecodePlan parses and validates a JSON TuningPlan produced by
// TuningPlan.Encode or printed by `spmvtune predict -plan`.
func DecodePlan(data []byte) (*TuningPlan, error) { return plan.Decode(data) }

// NewPlanCache builds a plan cache; zero options get sensible defaults.
func NewPlanCache(opts PlanCacheOptions) *PlanCache { return plancache.New(opts) }

// NewServer builds the serving handler around a framework. Mount it on any
// http.Server; cmd/spmvd is the reference embedding.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// ModelVersion fingerprints a trained model; plans record it so a cache
// can be invalidated when the model changes.
func ModelVersion(m *Model) string { return core.ModelVersion(m) }
