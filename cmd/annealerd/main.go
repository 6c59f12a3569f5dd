// Command annealerd serves the annealer API over HTTP: the
// "quantum (or simulated) annealer" box of the paper's Figure 1 as a
// network service, mirroring how production annealers are consumed
// (submit a QUBO, receive energy-sorted samples).
//
// Usage:
//
//	annealerd [-addr :8080] [-max-reads 1024] [-max-sweeps 100000]
//	          [-max-concurrent N] [-sample-timeout 60s]
//	          [-read-timeout 30s] [-write-timeout 120s]
//	          [-backends http://a:8080,http://b:8080] [-pprof]
//	          [-job-queue 1024] [-job-workers N] [-result-ttl 5m]
//	          [-cache-capacity 256] [-cache-peers http://a:8080,…]
//
// Besides the synchronous POST /v1/sample, the daemon serves an async
// job API (POST /v1/jobs → poll GET /v1/jobs/{id}, stream
// /v1/jobs/{id}/stream, cancel with DELETE) over a bounded fair queue:
// strict priority classes, round-robin fairness across clients, and
// 429 + Retry-After admission control when the queue fills. Models can
// be uploaded once to the content-addressed cache (PUT /v1/cache/{fp})
// and referenced by fingerprint thereafter; replicas listed in
// -cache-peers fill cache misses from each other.
//
// The daemon is hardened for production traffic: per-job reads/sweeps
// are clamped server-side, in-flight jobs are bounded (excess requests
// get 429), each job's sampling phase has a deadline (exceeded jobs get
// 503), the HTTP server enforces read/write timeouts, and SIGINT or
// SIGTERM drains in-flight jobs before exiting.
//
// Observability: GET /metrics serves Prometheus text covering HTTP
// traffic, the annealing substrate (sweeps, flips, resyncs), the solver
// metric families, and — in proxy mode — pool failovers and per-backend
// circuit state. -pprof additionally mounts net/http/pprof under
// /debug/pprof/ (off by default: profiling endpoints leak heap contents
// and should not face untrusted networks).
//
// With -backends, annealerd samples nothing itself: it fronts a fleet
// of other annealerd instances, forwarding each job's reads/sweeps/seed
// (clamped to this daemon's caps) with circuit-breaker failover.
//
// Point a solver at it with cmd/qsmt's -remote flag:
//
//	qsmt -remote http://localhost:8080 file.smt2
//
// or spread load over several daemons with a comma-separated list:
//
//	qsmt -remote http://a:8080,http://b:8080 file.smt2
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"qsmt"
	"qsmt/internal/anneal"
	"qsmt/internal/obs"
	"qsmt/internal/qubo"
	"qsmt/internal/remote"
)

// config is everything buildHandler needs, split from flag parsing so
// tests can assemble the daemon's exact handler in-process.
type config struct {
	maxReads      int
	maxSweeps     int
	maxConcurrent int
	sampleTimeout time.Duration
	backends      []string // non-empty switches to proxy mode
	pprof         bool

	jobQueue   int           // async job queue bound; 0 disables the job API
	jobWorkers int           // worker pool size; 0 = max-concurrent, then 1
	resultTTL  time.Duration // unclaimed-result retention; 0 = package default
	cacheCap   int           // content-addressed model cache entries; 0 disables
	cachePeers []string      // sibling replicas for cache peer fills
}

// buildHandler assembles the daemon's HTTP surface: the annealer API at
// /v1/* (including the async job API and model cache when enabled),
// Prometheus text at /metrics, and optionally pprof. It returns the
// handler together with the registry, (in proxy mode) the pool, and the
// remote.Server, whose ServeJobs the caller runs when the job API is on.
func buildHandler(cfg config) (http.Handler, *obs.Registry, *remote.Pool, *remote.Server) {
	reg := obs.NewRegistry()

	// Register every metric family the daemon can emit up front, so one
	// scrape of a fresh instance already shows the full schema at zero.
	qsmt.NewSolverMetrics(reg)
	collector := obs.NewCollector(reg)
	poolMetrics := remote.NewPoolMetrics(reg)

	srv := &remote.Server{
		Description:   "qsmt simulated annealer",
		MaxReads:      cfg.maxReads,
		MaxSweeps:     cfg.maxSweeps,
		MaxConcurrent: cfg.maxConcurrent,
		SampleTimeout: cfg.sampleTimeout,
		Metrics:       remote.NewServerMetrics(reg),
		Collector:     collector,
	}
	if cfg.jobQueue > 0 {
		srv.Jobs = remote.NewJobQueue(cfg.jobQueue, cfg.resultTTL)
		srv.JobWorkers = cfg.jobWorkers
	}
	if cfg.cacheCap > 0 {
		srv.CAS = remote.NewModelCAS(cfg.cacheCap)
		srv.CachePeers = cfg.cachePeers
	}

	var pool *remote.Pool
	if len(cfg.backends) > 0 {
		pool = remote.NewPool(cfg.backends...)
		pool.SetMetrics(poolMetrics)
		srv.Description = "qsmt annealer pool proxy"
		maxReads, maxSweeps := cfg.maxReads, cfg.maxSweeps
		if maxReads <= 0 {
			maxReads = remote.DefaultMaxReads
		}
		if maxSweeps <= 0 {
			maxSweeps = remote.DefaultMaxSweeps
		}
		srv.NewSampler = func(req remote.SampleRequest) interface {
			Sample(*qubo.Compiled) (*anneal.SampleSet, error)
		} {
			job := remote.Job{Reads: req.Reads, Sweeps: req.Sweeps, Seed: req.Seed}
			if job.Reads > maxReads {
				job.Reads = maxReads
			}
			if job.Sweeps > maxSweeps {
				job.Sweeps = maxSweeps
			}
			return pool.JobSampler(job)
		}
	}

	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.Handle("/metrics", reg.Handler())
	if cfg.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux, reg, pool, srv
}

func main() {
	var (
		addr            = flag.String("addr", ":8080", "listen address")
		maxReads        = flag.Int("max-reads", remote.DefaultMaxReads, "cap on per-job reads")
		maxSweeps       = flag.Int("max-sweeps", remote.DefaultMaxSweeps, "cap on per-job sweeps")
		maxConcurrent   = flag.Int("max-concurrent", 2*runtime.GOMAXPROCS(0), "max in-flight sampling jobs (excess get 429); 0 = unlimited")
		sampleTimeout   = flag.Duration("sample-timeout", 60*time.Second, "per-job sampling deadline (exceeded jobs get 503); 0 = none")
		readTimeout     = flag.Duration("read-timeout", 30*time.Second, "HTTP server read timeout")
		writeTimeout    = flag.Duration("write-timeout", 2*time.Minute, "HTTP server write timeout (must exceed -sample-timeout)")
		shutdownTimeout = flag.Duration("shutdown-timeout", 30*time.Second, "grace period for draining jobs on SIGINT/SIGTERM")
		backends        = flag.String("backends", "", "comma-separated backend URLs; proxy jobs to them instead of sampling locally")
		pprofFlag       = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (do not enable on untrusted networks)")
		jobQueue        = flag.Int("job-queue", remote.DefaultMaxQueued, "async job queue bound (excess submissions get 429 + Retry-After); 0 disables the job API")
		jobWorkers      = flag.Int("job-workers", 0, "async job worker pool size; 0 = -max-concurrent, then 1")
		resultTTL       = flag.Duration("result-ttl", remote.DefaultResultTTL, "how long unclaimed job results are retained")
		cacheCap        = flag.Int("cache-capacity", remote.DefaultCASCapacity, "content-addressed model cache entries (fingerprint-only submission); 0 disables")
		cachePeers      = flag.String("cache-peers", "", "comma-separated sibling replica URLs; model cache misses fill from peers before rejecting")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: annealerd [flags]")
		os.Exit(2)
	}

	cfg := config{
		maxReads:      *maxReads,
		maxSweeps:     *maxSweeps,
		maxConcurrent: *maxConcurrent,
		sampleTimeout: *sampleTimeout,
		pprof:         *pprofFlag,
		jobQueue:      *jobQueue,
		jobWorkers:    *jobWorkers,
		resultTTL:     *resultTTL,
		cacheCap:      *cacheCap,
	}
	cfg.backends = splitURLs(*backends)
	cfg.cachePeers = splitURLs(*cachePeers)
	handler, _, pool, rsrv := buildHandler(cfg)

	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadTimeout:       *readTimeout,
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// The async job workers run for the daemon's lifetime; on shutdown
	// the queue closes (new submissions get 503) and the pool drains.
	var workersDone chan struct{}
	jctx, jcancel := context.WithCancel(context.Background())
	defer jcancel()
	if rsrv.Jobs != nil {
		workersDone = make(chan struct{})
		go func() {
			defer close(workersDone)
			rsrv.ServeJobs(jctx)
		}()
	}

	errc := make(chan error, 1)
	go func() {
		mode := "local sampling"
		if pool != nil {
			mode = fmt.Sprintf("proxying %d backends", len(cfg.backends))
		}
		log.Printf("annealerd listening on %s (%s, max reads %d, max sweeps %d, max concurrent %d, sample timeout %v, job queue %d)",
			*addr, mode, *maxReads, *maxSweeps, *maxConcurrent, *sampleTimeout, *jobQueue)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		stop() // a second signal kills immediately
		log.Printf("annealerd draining (up to %v)…", *shutdownTimeout)
		sctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("annealerd shutdown: %v", err)
			os.Exit(1)
		}
		if rsrv.Jobs != nil {
			rsrv.Jobs.Close()
			jcancel()
			select {
			case <-workersDone:
			case <-sctx.Done():
				log.Printf("annealerd: job workers did not drain in time")
			}
		}
		log.Printf("annealerd stopped")
	}
}

// splitURLs parses a comma-separated URL list, dropping empty entries.
func splitURLs(s string) []string {
	var out []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			out = append(out, u)
		}
	}
	return out
}
