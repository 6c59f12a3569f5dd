// Command loadgen load-tests the annealer service layer end to end and
// prints a JSON report on stdout: sustained job throughput, p50/p99 job
// latency, and the admission-control shed rate.
//
// By default it is fully self-hosted — it boots N in-process backend
// annealer services, fronts them with a pool proxy exposing the async
// job API and the content-addressed model cache (exactly the topology
// `annealerd -backends …` serves), and then drives concurrent clients
// through the front door:
//
//	loadgen [-backends 3] [-duration 5s] [-concurrency 16] [-clients 4]
//	        [-queue 64] [-workers 4] [-vars 64] [-reads 8] [-sweeps 200]
//	        [-seed 1] [-url http://host:8080]
//
// With -url the self-hosted stack is skipped and an external service is
// driven instead. Every client submits jobs content-addressed: the
// model uploads once, then each job travels as a fingerprint-only
// request. Shed submissions (429) are counted, not retried — the shed
// rate is the measurement, not an error.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"qsmt/internal/anneal"
	"qsmt/internal/obs"
	"qsmt/internal/qubo"
	"qsmt/internal/remote"
)

type loadCfg struct {
	backends    int
	duration    time.Duration
	concurrency int
	clients     int
	queue       int
	workers     int
	vars        int
	reads       int
	sweeps      int
	seed        int64
	url         string // non-empty: drive an external service
}

// report is the JSON payload loadgen prints.
type report struct {
	Backends    int     `json:"backends"`
	Concurrency int     `json:"concurrency"`
	Clients     int     `json:"clients"`
	DurationSec float64 `json:"duration_seconds"`
	JobsDone    int     `json:"jobs_done"`
	JobsShed    int     `json:"jobs_shed"`
	JobsFailed  int     `json:"jobs_failed"`
	QPS         float64 `json:"qps"`
	P50Millis   float64 `json:"p50_ms"`
	P99Millis   float64 `json:"p99_ms"`
	ShedRate    float64 `json:"shed_rate"`
}

// randomModel builds a deterministic random QUBO with n variables: full
// linear terms plus a sparse band of couplers, shaped like the penalty
// matrices the solver emits.
func randomModel(n int, seed int64) *qubo.Compiled {
	rng := rand.New(rand.NewSource(seed))
	m := qubo.New(n)
	for i := 0; i < n; i++ {
		m.AddLinear(i, rng.Float64()*2-1)
		for w := 1; w <= 3 && i+w < n; w++ {
			if rng.Intn(2) == 0 {
				m.AddQuadratic(i, i+w, rng.Float64()*2-1)
			}
		}
	}
	return m.Compile()
}

// listenAndServe starts an HTTP server on a loopback ephemeral port and
// returns its base URL plus a shutdown func.
func listenAndServe(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// selfHost boots the benchmark topology: cfg.backends local annealer
// services behind one pool-proxy front serving the job API. Returns the
// front's base URL and a teardown func.
func selfHost(cfg loadCfg) (string, func(), error) {
	var stops []func()
	teardown := func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	var backendURLs []string
	for i := 0; i < cfg.backends; i++ {
		b := &remote.Server{
			Description:   fmt.Sprintf("loadgen backend %d", i),
			SampleTimeout: 30 * time.Second,
		}
		url, stop, err := listenAndServe(b.Handler())
		if err != nil {
			teardown()
			return "", nil, err
		}
		stops = append(stops, stop)
		backendURLs = append(backendURLs, url)
	}

	pool := remote.NewPool(backendURLs...)
	front := &remote.Server{
		Description:   "loadgen pool front",
		SampleTimeout: 30 * time.Second,
		Metrics:       remote.NewServerMetrics(obs.NewRegistry()),
		Jobs:          remote.NewJobQueue(cfg.queue, time.Minute),
		JobWorkers:    cfg.workers,
		CAS:           remote.NewModelCAS(64),
		NewSampler: func(req remote.SampleRequest) interface {
			Sample(*qubo.Compiled) (*anneal.SampleSet, error)
		} {
			return pool.JobSampler(remote.Job{Reads: req.Reads, Sweeps: req.Sweeps, Seed: req.Seed})
		},
	}
	jctx, jcancel := context.WithCancel(context.Background())
	workersDone := make(chan struct{})
	go func() {
		defer close(workersDone)
		front.ServeJobs(jctx)
	}()
	url, stop, err := listenAndServe(front.Handler())
	if err != nil {
		jcancel()
		<-workersDone
		teardown()
		return "", nil, err
	}
	stops = append(stops, stop, func() {
		front.Jobs.Close()
		jcancel()
		<-workersDone
	})
	return url, teardown, nil
}

// run drives the load and assembles the report.
func run(cfg loadCfg) (*report, error) {
	target := cfg.url
	if target == "" {
		url, teardown, err := selfHost(cfg)
		if err != nil {
			return nil, err
		}
		defer teardown()
		target = url
	}

	compiled := randomModel(cfg.vars, cfg.seed)
	job := remote.Job{Reads: cfg.reads, Sweeps: cfg.sweeps}

	// Upload the model once; afterwards every submission is a
	// fingerprint-only request (falling back inline automatically if the
	// target has no cache).
	warm := &remote.Client{BaseURL: target, ClientID: "loadgen-warm"}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.duration+60*time.Second)
	defer cancel()
	if _, err := warm.UploadModel(ctx, compiled); err != nil {
		var se *remote.StatusError
		if !errors.As(err, &se) || se.Code != http.StatusNotFound {
			return nil, fmt.Errorf("warming model cache: %w", err)
		}
		// 404: the target serves no cache routes; clients ship inline.
	}

	var (
		mu        sync.Mutex
		latencies []time.Duration
		done      int
		shed      int
		failed    int
	)
	deadline := time.Now().Add(cfg.duration)
	var wg sync.WaitGroup
	for w := 0; w < cfg.concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &remote.Client{
				BaseURL:    target,
				ClientID:   fmt.Sprintf("loadgen-%d", w%cfg.clients),
				MaxRetries: -1, // shed rate is the measurement; do not retry 429s
			}
			prio := remote.Priority(w % 3)
			for seq := int64(1); time.Now().Before(deadline); seq++ {
				j := job
				j.Seed = int64(w)*1_000_000 + seq // distinct seeds keep backends honest
				start := time.Now()
				id, err := client.SubmitJob(ctx, compiled, j, prio)
				if err != nil {
					var se *remote.StatusError
					mu.Lock()
					if errors.As(err, &se) && se.Code == http.StatusTooManyRequests {
						shed++
					} else {
						failed++
					}
					mu.Unlock()
					// Admission control said to back off; a tight resubmit
					// loop would just measure the 429 path.
					time.Sleep(5 * time.Millisecond)
					continue
				}
				st, err := client.WaitJob(ctx, id)
				elapsed := time.Since(start)
				mu.Lock()
				switch {
				case err == nil && st.State == "done":
					done++
					latencies = append(latencies, elapsed)
				default:
					failed++
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	rep := &report{
		Backends:    cfg.backends,
		Concurrency: cfg.concurrency,
		Clients:     cfg.clients,
		DurationSec: cfg.duration.Seconds(),
		JobsDone:    done,
		JobsShed:    shed,
		JobsFailed:  failed,
	}
	if cfg.duration > 0 {
		rep.QPS = float64(done) / cfg.duration.Seconds()
	}
	if total := done + shed + failed; total > 0 {
		rep.ShedRate = float64(shed) / float64(total)
	}
	if len(latencies) > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		rep.P50Millis = float64(latencies[len(latencies)*50/100].Microseconds()) / 1000
		rep.P99Millis = float64(latencies[len(latencies)*99/100].Microseconds()) / 1000
	}
	return rep, nil
}

func writeReport(w io.Writer, rep *report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]*report{"service": rep})
}

func main() {
	cfg := loadCfg{}
	flag.IntVar(&cfg.backends, "backends", 3, "self-hosted backend services behind the pool front")
	flag.DurationVar(&cfg.duration, "duration", 5*time.Second, "measurement window")
	flag.IntVar(&cfg.concurrency, "concurrency", 16, "concurrent submitters")
	flag.IntVar(&cfg.clients, "clients", 4, "distinct client identities (fairness buckets)")
	flag.IntVar(&cfg.queue, "queue", 64, "front job queue bound (smaller = more shedding)")
	flag.IntVar(&cfg.workers, "workers", 4, "front job workers")
	flag.IntVar(&cfg.vars, "vars", 64, "QUBO variables in the benchmark model")
	flag.IntVar(&cfg.reads, "reads", 8, "annealing reads per job")
	flag.IntVar(&cfg.sweeps, "sweeps", 200, "annealing sweeps per read")
	flag.Int64Var(&cfg.seed, "seed", 1, "model generator seed")
	flag.StringVar(&cfg.url, "url", "", "drive this external service instead of self-hosting")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: loadgen [flags]")
		os.Exit(2)
	}

	rep, err := run(cfg)
	if err != nil {
		log.Fatalf("loadgen: %v", err)
	}
	if err := writeReport(os.Stdout, rep); err != nil {
		log.Fatalf("loadgen: writing report: %v", err)
	}
	log.Printf("loadgen: %d done / %d shed / %d failed in %v — %.1f jobs/s, p50 %.1fms, p99 %.1fms, shed rate %.1f%%",
		rep.JobsDone, rep.JobsShed, rep.JobsFailed, cfg.duration, rep.QPS, rep.P50Millis, rep.P99Millis, 100*rep.ShedRate)
}
