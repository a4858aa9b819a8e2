// Command spmvd is the concurrent SpMV serving daemon: it loads (or
// bootstrap-trains) a tuning model, then serves auto-tuned sparse
// matrix-vector multiplication over HTTP with a shared tuning-plan cache.
//
//	spmvd -model model.json                 # serve with a trained model
//	spmvd -corpus 40                        # no model file: train at startup
//	spmvd -addr :8080 -cache-dir /var/cache/spmvd -cache-ttl 1h
//	spmvd -trace spans.jsonl                # JSONL pipeline spans per request
//	spmvd -batch-window 2ms -max-batch 32   # fuse concurrent same-matrix SpMVs
//	spmvd -retrain-interval 10m -retrain-dir /var/lib/spmvd/rows
//	spmvd -no-retrain                       # serve a frozen model
//	spmvd -pprof 127.0.0.1:6060             # net/http/pprof on its own listener
//
// API (see DESIGN.md §7–8):
//
//	POST /v1/matrices       upload a Matrix Market body → {"id": ...}
//	POST /v1/spmv           {"matrix": id, "vector": [...]} or {"vectors": [[...]]}
//	POST /v1/solve          create a resident solver session (cg/jacobi/gmres/
//	                        pagerank/power/spmv), or stream a whole solve as
//	                        JSONL with {"mode": "run"}
//	POST /v1/solve/{id}/iterate  advance a session ({"steps": N}; vector for spmv)
//	GET  /v1/solve/{id}     session status + current iterate
//	DELETE /v1/solve/{id}   release a session
//	GET  /v1/plans/{id}     the tuning plan the model chose for a matrix
//	GET  /v1/profiles/{id}  per-bin execution profiles of the latest guarded run
//	GET  /healthz           liveness (200 with degraded reasons when impaired)
//	GET  /readyz            readiness (503 while saturated or draining)
//	GET  /metrics           cache, request and device counters, text exposition
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	_ "net/http/pprof" // registers /debug/pprof/ on http.DefaultServeMux, served by -pprof alone
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"spmvtune/internal/c50"
	"spmvtune/internal/core"
	"spmvtune/internal/matgen"
	"spmvtune/internal/plancache"
	"spmvtune/internal/retrain"
	"spmvtune/internal/server"
	"spmvtune/internal/trace"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	modelPath := flag.String("model", "", "trained model file (empty: bootstrap-train at startup)")
	corpus := flag.Int("corpus", 24, "bootstrap training corpus size when no -model is given")
	workers := flag.Int("workers", 0, "concurrent SpMV executions (0 = GOMAXPROCS)")
	execWorkers := flag.Int("exec-workers", 1, "per-request bin-execution goroutines (1 = sequential bins; clamped so workers*exec-workers <= GOMAXPROCS)")
	queue := flag.Int("queue", 64, "queued SpMV requests beyond the executing ones before 429")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-request execution deadline")
	maxBatch := flag.Int("max-batch", 64, "maximum vectors per SpMV request and per fused coalesced launch")
	batchWindow := flag.Duration("batch-window", 0, "fuse same-matrix SpMVs arriving within this window into one multi-vector launch (0 = off)")
	maxSessions := flag.Int("max-sessions", 64, "resident solver sessions before the oldest idle one is evicted")
	sessionTTL := flag.Duration("session-ttl", 10*time.Minute, "idle solver sessions are evicted after this long")
	maxBody := flag.Int64("max-body", 64<<20, "maximum request body bytes")
	cacheCap := flag.Int("cache-capacity", 256, "resident tuning plans")
	cacheTTL := flag.Duration("cache-ttl", 0, "plan expiry (0 = never)")
	cacheDir := flag.String("cache-dir", "", "persist plans to this directory (empty = memory only)")
	tracePath := flag.String("trace", "", "append JSONL pipeline spans to this file (one span per phase, tagged with per-request trace IDs)")
	noCounters := flag.Bool("no-counters", false, "disable device performance-counter collection")
	breakerThreshold := flag.Int("breaker-threshold", 0, "consecutive tuning failures before a matrix's breaker trips and requests degrade (0 = default 3)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "open-breaker cooldown before a half-open tuning probe (0 = default 5s)")
	noBreaker := flag.Bool("no-breaker", false, "disable the tuning circuit breaker: tuning failures surface as request errors")
	retrainInterval := flag.Duration("retrain-interval", 5*time.Minute, "background model retrain period")
	retrainDir := flag.String("retrain-dir", "", "persist training rows to this directory (empty = memory only)")
	noRetrain := flag.Bool("no-retrain", false, "disable the online learning loop")
	exploreRate := flag.Float64("explore-rate", 0.05, "probability of simulating one counterfactual kernel per observed request")
	kernelSpace := flag.String("kernel-space", "", "kernel space for tuning searches and bootstrap training: 'pool' or '' = the paper's nine kernels, 'synth' = the synthesized parameter space (a -model file carries its own space)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof's /debug/pprof/ on this address, a listener of its own (empty = off; never on the API listener)")
	flag.Parse()
	log.SetPrefix("spmvd: ")
	log.SetFlags(log.LstdFlags)

	cfg := core.DefaultConfig()
	cfg.KernelSpace = *kernelSpace
	if _, err := cfg.Space(); err != nil {
		log.Fatal(err)
	}
	model, err := obtainModel(*modelPath, *corpus, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fw := core.NewFramework(cfg, model)
	log.Printf("model version %s", core.ModelVersion(model))

	var tw *trace.Writer
	if *tracePath != "" {
		f, err := os.OpenFile(*tracePath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("open trace file: %v", err)
		}
		defer f.Close()
		tw = trace.NewWriter(f)
		log.Printf("tracing pipeline spans to %s", *tracePath)
	}

	// The online learning loop: production profiles become training rows,
	// and a background pass periodically retrains the model, gating every
	// promotion on held-out regret. server.New registers the hot-swap +
	// cache-invalidation hook.
	var svc *retrain.Service
	if !*noRetrain {
		store, err := retrain.OpenStore(retrain.StoreOptions{Dir: *retrainDir})
		if err != nil {
			log.Fatalf("open retrain store: %v", err)
		}
		svc, err = retrain.New(retrain.Config{
			Framework:   fw,
			Store:       store,
			Interval:    *retrainInterval,
			ExploreRate: *exploreRate,
			Logf:        log.Printf,
		})
		if err != nil {
			log.Fatalf("retrain service: %v", err)
		}
		log.Printf("online retraining every %s (explore rate %.2f, rows in %s)",
			*retrainInterval, *exploreRate, storeDesc(*retrainDir))
	}

	srv, err := server.New(server.Config{
		Framework:      fw,
		Retrain:        svc,
		Workers:        *workers,
		ExecWorkers:    *execWorkers,
		QueueDepth:     *queue,
		DefaultTimeout: *timeout,
		MaxBatch:       *maxBatch,
		BatchWindow:    *batchWindow,
		MaxBodyBytes:   *maxBody,
		MaxSessions:    *maxSessions,
		SessionTTL:     *sessionTTL,
		Cache: plancache.Options{
			Capacity: *cacheCap,
			TTL:      *cacheTTL,
			Dir:      *cacheDir,
		},
		Trace:           tw,
		DisableCounters: *noCounters,
		Breaker: server.BreakerConfig{
			Threshold: *breakerThreshold,
			Cooldown:  *breakerCooldown,
			Disabled:  *noBreaker,
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Sweep the persistent cache dir before serving: crashed persists leave
	// tmp files, and anything corrupt is quarantined now rather than at
	// first request.
	if *cacheDir != "" {
		rs, err := srv.RecoverCache()
		if err != nil {
			log.Printf("cache recovery: %v (continuing memory-only)", err)
		} else {
			log.Printf("cache dir %s: %d plans loadable, %d quarantined, %d tmp files removed",
				*cacheDir, rs.Loadable, rs.Quarantined, rs.TmpRemoved)
		}
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}
	if *pprofAddr != "" {
		// The net/http/pprof import registers its handlers on
		// http.DefaultServeMux, which only this listener serves; the API
		// listener's handler is srv.
		dbg := &http.Server{Addr: *pprofAddr, Handler: http.DefaultServeMux, ReadHeaderTimeout: 10 * time.Second}
		defer dbg.Close()
		go func() {
			if err := dbg.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				log.Printf("pprof: %v", err)
			}
		}()
		log.Printf("pprof on %s", *pprofAddr)
	}

	// Serve until SIGINT/SIGTERM, then drain in-flight requests.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var retrainDone chan struct{}
	if svc != nil {
		retrainDone = make(chan struct{})
		go func() {
			defer close(retrainDone)
			svc.Run(ctx) // drains queued observations and flushes rows on cancel
		}()
	}
	done := make(chan error, 1)
	go func() { done <- httpSrv.ListenAndServe() }()
	log.Printf("serving on %s", *addr)

	select {
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	case <-ctx.Done():
		log.Print("shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		// In-flight requests are done; flush unpersisted plans so the next
		// start serves them from disk instead of re-tuning.
		if flushed, err := srv.Drain(); err != nil {
			log.Printf("drain: flushed %d plans, error: %v", flushed, err)
		} else if flushed > 0 {
			log.Printf("drain: flushed %d plans to cache dir", flushed)
		}
		// The retrain loop sees the same cancellation: it ingests whatever
		// is still queued and seals pending rows before exiting.
		if retrainDone != nil {
			<-retrainDone
			rst := svc.Stats()
			log.Printf("retrain at exit: generation %d, %d rows, %d runs (%d promoted, %d rejected)",
				rst.Generation, rst.Rows, rst.Runs, rst.Promotions, rst.Rejected)
		}
	}
	st := srv.CacheStats()
	log.Printf("plan cache at exit: %d entries, %d hits, %d misses; decode fallbacks: %s",
		st.Entries, st.Hits, st.Misses, scrape(srv, "spmvd_decode_fallback_total"))
}

// scrape reads one series off the server's own /metrics exposition, in
// process: the exit log reports a counter the way an operator reads it,
// without the server growing an accessor per counter.
func scrape(srv http.Handler, series string) string {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			return v
		}
	}
	return "unknown"
}

// storeDesc names the row store's backing for the startup log line.
func storeDesc(dir string) string {
	if dir == "" {
		return "memory"
	}
	return dir
}

// obtainModel loads the model file, or bootstrap-trains a small one so the
// daemon is usable out of the box (a real deployment trains offline with
// `spmvtune train` and passes -model).
func obtainModel(path string, corpus int, cfg core.Config) (*core.Model, error) {
	if path != "" {
		m, err := core.LoadModel(path)
		if err != nil {
			return nil, fmt.Errorf("load model: %w", err)
		}
		log.Printf("loaded model from %s", path)
		return m, nil
	}
	if corpus < 2 {
		corpus = 2
	}
	log.Printf("no -model given: bootstrap-training on a %d-matrix synthetic corpus", corpus)
	mark := time.Now()
	lap := func() float64 { // seconds since the previous lap
		d := time.Since(mark)
		mark = mark.Add(d)
		return d.Seconds()
	}
	// Labelling reads structure only, so the corpus carries no values.
	mats := matgen.ValueFreeCorpus(matgen.CorpusOptions{N: corpus, MinRows: 256, MaxRows: 2048, Seed: 42})
	generated := lap()
	td := core.NewTrainingData(cfg)
	td.AddMatrices(cfg, matgen.Matrices(mats))
	labeled := lap()
	m := core.TrainModel(td, cfg, c50.DefaultOptions())
	// cfg.SearchCache is nil, so the labeling searches used the shared cache.
	log.Printf("bootstrap: generated %d matrices in %.2fs, labeled in %.2fs, trained in %.2fs (cost cache %+v)",
		len(mats), generated, labeled, lap(), core.SearchCacheStats())
	return m, nil
}
