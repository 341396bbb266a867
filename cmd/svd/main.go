// Command svd is the batch deploy daemon: one long-lived process wrapping a
// shared splitvm.Engine behind the HTTP API of pkg/splitvm/server. Upload a
// module once, deploy it on many simulated targets in batches, invoke entry
// points on the live machines, and watch the code cache amortize the JIT
// work across the fleet.
//
// Usage:
//
//	svd [-addr :7420] [-workers 4] [-queue 64] [-cache-size 0] [-cache-dir DIR]
//	    [-journal FILE] [-retry-after 1s] [-deploy-ttl 0] [-compile-workers 0]
//	    [-max-deploys-per-module 0] [-max-deploys-per-tenant 0]
//	    [-max-inflight-per-tenant 0]
//
// With -cache-dir the code cache is backed by a persistent on-disk store:
// restarts deploy warm (from_cache without recompiling) and replicas
// pointed at one shared volume reuse each other's JIT work. With -journal
// the deployment table itself survives crashes: every upload, deploy and
// eviction is appended to the journal and replayed on startup, so a
// SIGKILLed backend restarts with its machines live (and, combined with
// -cache-dir, without recompiling anything).
//
// Router mode turns the same binary into a stateless front door over a
// fleet of svd replicas, consistent-hash sharding deployments by module:
//
//	svd -router -backends http://host1:7420,http://host2:7420 [-addr :7421]
//	    [-load-factor 1.25] [-health-interval 2s] [-breaker-failures 3]
//	    [-breaker-successes 2] [-breaker-cooldown 5s] [-run-deadline 60s]
//
// The router ejects backends through per-backend circuit breakers and fails
// runs over to surviving replicas; see docs/operations.md for the failure
// model. SIGINT/SIGTERM trigger a graceful shutdown: the listener drains
// for up to -drain, then in-flight simulations are force-cancelled, bounded
// overall by -shutdown-timeout.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/pkg/splitvm"
	"repro/pkg/splitvm/server"
)

func main() {
	addr := flag.String("addr", ":7420", "listen address")
	workers := flag.Int("workers", 4, "deploy workers per target")
	queue := flag.Int("queue", 64, "pending deployments per target before batches are rejected with 429")
	cacheSize := flag.Int("cache-size", 0, "max native images kept in the code cache (0 = unbounded)")
	cacheDir := flag.String("cache-dir", "", "persistent disk cache directory (empty = memory only); share it between replicas for fleet-wide JIT reuse")
	journalPath := flag.String("journal", "", "deployment journal file (empty = in-memory deployments); replayed on startup so restarts keep the deployment table")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint on 429 responses")
	maxModule := flag.Int64("max-module-bytes", 4<<20, "largest accepted module upload")
	deployTTL := flag.Duration("deploy-ttl", 0, "evict deployments idle for this long (0 = keep forever)")
	compileWorkers := flag.Int("compile-workers", 0, "JIT worker pool per image build (0 = SPLITVM_COMPILE_WORKERS or GOMAXPROCS, 1 = sequential)")
	maxPerModule := flag.Int("max-deploys-per-module", 0, "cap live deployments per module (0 = unlimited)")
	maxPerTenant := flag.Int("max-deploys-per-tenant", 0, "cap live deployments per X-Tenant header value (0 = unlimited)")
	maxInflight := flag.Int("max-inflight-per-tenant", 0, "cap in-flight run/run-batch requests per tenant; excess is shed with 429 resource_exhausted (0 = unlimited)")
	drain := flag.Duration("drain", 10*time.Second, "graceful drain: how long in-flight requests may finish on their own after SIGTERM")
	shutdownTimeout := flag.Duration("shutdown-timeout", 30*time.Second, "hard shutdown bound: after -drain, in-flight simulations are force-cancelled; the process exits within this total")

	router := flag.Bool("router", false, "run as a consistent-hash router over -backends instead of a backend")
	backends := flag.String("backends", "", "comma-separated backend base URLs (router mode)")
	loadFactor := flag.Float64("load-factor", 1.25, "bounded-load headroom over the fair share (router mode)")
	healthInterval := flag.Duration("health-interval", 2*time.Second, "backend probe interval (router mode)")
	breakerFailures := flag.Int("breaker-failures", 3, "consecutive failures that open a backend's circuit breaker (router mode)")
	breakerSuccesses := flag.Int("breaker-successes", 2, "consecutive half-open successes that close the breaker again (router mode)")
	breakerCooldown := flag.Duration("breaker-cooldown", 5*time.Second, "how long an open breaker blocks a backend before the first half-open probe (router mode)")
	runDeadline := flag.Duration("run-deadline", 60*time.Second, "end-to-end bound on one run, including failover re-deploys and retries (router mode; negative disables)")
	flag.Parse()

	if *router {
		var urls []string
		for _, b := range strings.Split(*backends, ",") {
			if b = strings.TrimSpace(b); b != "" {
				urls = append(urls, b)
			}
		}
		runRouter(*addr, *drain, server.RouterConfig{
			Backends:         urls,
			LoadFactor:       *loadFactor,
			HealthInterval:   *healthInterval,
			MaxModuleBytes:   *maxModule,
			BreakerFailures:  *breakerFailures,
			BreakerSuccesses: *breakerSuccesses,
			BreakerCooldown:  *breakerCooldown,
			RunDeadline:      *runDeadline,
		})
		return
	}

	opts := []splitvm.Option{splitvm.WithCacheSize(*cacheSize)}
	if *compileWorkers != 0 {
		opts = append(opts, splitvm.WithCompileWorkers(*compileWorkers))
	}
	if *cacheDir != "" {
		opts = append(opts, splitvm.WithDiskCache(*cacheDir))
	}
	eng := splitvm.New(opts...)
	if err := eng.DiskCacheErr(); err != nil {
		// An operator who asked for durability gets a hard failure, not a
		// silent memory-only daemon.
		log.Fatalf("svd: disk cache: %v", err)
	}
	srv := server.New(eng, server.Config{
		WorkersPerTarget:        *workers,
		QueueDepth:              *queue,
		RetryAfter:              *retryAfter,
		MaxModuleBytes:          *maxModule,
		DeployTTL:               *deployTTL,
		MaxDeploymentsPerModule: *maxPerModule,
		MaxDeploymentsPerTenant: *maxPerTenant,
		MaxInflightPerTenant:    *maxInflight,
		JournalPath:             *journalPath,
	})
	if err := srv.JournalErr(); err != nil {
		// Same contract as the disk cache: asked-for durability that cannot
		// be provided is a startup failure, not a silent downgrade.
		log.Fatalf("svd: journal: %v", err)
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("svd: serving on %s (workers/target=%d, queue=%d, cache-size=%d, cache-dir=%q, journal=%q)",
		*addr, *workers, *queue, *cacheSize, *cacheDir, *journalPath)

	select {
	case err := <-errc:
		// Listener died on its own (port in use, ...).
		srv.Close()
		log.Fatalf("svd: %v", err)
	case <-ctx.Done():
	}

	log.Printf("svd: shutting down (draining for up to %s, hard stop within %s)", *drain, *shutdownTimeout)
	deadline := time.Now().Add(*shutdownTimeout)
	drainBound := *drain
	if drainBound > *shutdownTimeout {
		drainBound = *shutdownTimeout
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainBound)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		// A stuck simulation outlived the drain; close the listener's
		// remaining connections and let srv.Close cancel the run contexts —
		// the interpreters observe the cancellation within one interrupt
		// stride and their handlers return.
		log.Printf("svd: drain incomplete (%v); force-cancelling in-flight simulations", err)
		httpSrv.Close()
	}
	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(time.Until(deadline)):
		log.Printf("svd: shutdown timeout %s exceeded; exiting with work in flight", *shutdownTimeout)
		os.Exit(1)
	}

	st := eng.CacheStats()
	fmt.Printf("svd: final cache stats: %d hits (%d from disk), %d misses, %d evictions, %d entries\n",
		st.Hits, st.DiskHits, st.Misses, st.Evictions, st.Entries)
}

// runRouter is svd's router mode: no engine of its own, just the
// consistent-hash front door of server.NewRouter over the listed backends.
func runRouter(addr string, drain time.Duration, cfg server.RouterConfig) {
	rt, err := server.NewRouter(cfg)
	if err != nil {
		log.Fatalf("svd: router: %v (pass -backends url1,url2,...)", err)
	}
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           rt,
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("svd: routing on %s across %d backends (load-factor=%.2f)", addr, len(cfg.Backends), cfg.LoadFactor)

	select {
	case err := <-errc:
		rt.Close()
		log.Fatalf("svd: %v", err)
	case <-ctx.Done():
	}

	log.Printf("svd: router shutting down (draining for up to %s)", drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("svd: drain: %v", err)
	}
	rt.Close()

	st := rt.Stats()
	routed := int64(0)
	for _, b := range st.Backends {
		routed += b.Routed
	}
	fmt.Printf("svd: router final stats: %d requests routed, %d retries, %d fanouts, %d failovers\n",
		routed, st.Retries, st.Fanouts, st.Failovers)
}
