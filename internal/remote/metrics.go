package remote

import (
	"net/http"
	"strconv"
	"strings"
	"time"

	"qsmt/internal/obs"
)

// ServerMetrics is the registry-backed view of one annealer service:
// request counts by endpoint and status, request latency, in-flight
// sampling jobs, the load-shedding outcomes (saturation 429s,
// sampling-deadline 503s, queue-full 429s), the async job queue
// (depth, submissions by priority, completions by outcome, queue-wait
// and run latency, expired results), and the content-addressed model
// cache (hits, misses, peer fills). A nil *ServerMetrics disables
// recording, so the zero Server stays dependency-free.
type ServerMetrics struct {
	Requests       *obs.CounterVec // annealerd_http_requests_total{path,code}
	RequestSeconds *obs.Histogram  // annealerd_http_request_seconds
	InFlight       *obs.Gauge      // annealerd_inflight_jobs
	Saturated      *obs.Counter    // annealerd_saturated_total
	Deadlines      *obs.Counter    // annealerd_sample_deadline_total

	JobsSubmitted  *obs.CounterVec // annealerd_jobs_submitted_total{priority}
	JobsCompleted  *obs.CounterVec // annealerd_jobs_completed_total{outcome}
	JobsShed       *obs.Counter    // annealerd_jobs_shed_total
	QueueDepth     *obs.Gauge      // annealerd_job_queue_depth
	ResultsExpired *obs.Counter    // annealerd_job_results_expired_total
	JobWaitSeconds *obs.Histogram  // annealerd_job_wait_seconds
	JobRunSeconds  *obs.Histogram  // annealerd_job_run_seconds

	CASHits      *obs.Counter // annealerd_cas_hits_total
	CASMisses    *obs.Counter // annealerd_cas_misses_total
	CASPeerFills *obs.Counter // annealerd_cas_peer_fills_total

	JobsCoalesced *obs.Counter // annealerd_jobs_coalesced_total
}

// NewServerMetrics registers the service metric families on r.
func NewServerMetrics(r *obs.Registry) *ServerMetrics {
	return &ServerMetrics{
		Requests:       r.CounterVec("annealerd_http_requests_total", "HTTP requests served, by endpoint and status code.", "path", "code"),
		RequestSeconds: r.Histogram("annealerd_http_request_seconds", "HTTP request latency.", obs.DefaultLatencyBuckets),
		InFlight:       r.Gauge("annealerd_inflight_jobs", "Sampling jobs currently executing."),
		Saturated:      r.Counter("annealerd_saturated_total", "Requests shed with 429 because the job limit was reached."),
		Deadlines:      r.Counter("annealerd_sample_deadline_total", "Jobs rejected with 503 because sampling exceeded its deadline."),

		JobsSubmitted:  r.CounterVec("annealerd_jobs_submitted_total", "Async jobs accepted into the queue, by priority class.", "priority"),
		JobsCompleted:  r.CounterVec("annealerd_jobs_completed_total", "Async jobs leaving the running state, by outcome.", "outcome"),
		JobsShed:       r.Counter("annealerd_jobs_shed_total", "Async job submissions rejected with 429 because the queue was full."),
		QueueDepth:     r.Gauge("annealerd_job_queue_depth", "Async jobs currently queued (admitted, not yet running)."),
		ResultsExpired: r.Counter("annealerd_job_results_expired_total", "Finished jobs whose results expired unclaimed."),
		JobWaitSeconds: r.Histogram("annealerd_job_wait_seconds", "Time async jobs spend queued before running.", obs.DefaultLatencyBuckets),
		JobRunSeconds:  r.Histogram("annealerd_job_run_seconds", "Time async jobs spend executing.", obs.DefaultLatencyBuckets),

		CASHits:      r.Counter("annealerd_cas_hits_total", "Fingerprint-only submissions resolved from the content-addressed model cache."),
		CASMisses:    r.Counter("annealerd_cas_misses_total", "Fingerprint-only submissions that missed the content-addressed model cache."),
		CASPeerFills: r.Counter("annealerd_cas_peer_fills_total", "Content-addressed cache misses filled by fetching a peer replica's entry."),

		JobsCoalesced: r.Counter("annealerd_jobs_coalesced_total", "Async job submissions coalesced onto an identical in-flight job."),
	}
}

// jobStarted / jobDone bracket one sampling job; safe on nil receivers.
func (m *ServerMetrics) jobStarted() {
	if m != nil {
		m.InFlight.Inc()
	}
}

func (m *ServerMetrics) jobDone() {
	if m != nil {
		m.InFlight.Dec()
	}
}

func (m *ServerMetrics) shedSaturated() {
	if m != nil {
		m.Saturated.Inc()
	}
}

func (m *ServerMetrics) shedDeadline() {
	if m != nil {
		m.Deadlines.Inc()
	}
}

// Job-queue observations; all safe on nil receivers.

func (m *ServerMetrics) jobSubmitted(priority string) {
	if m != nil {
		m.JobsSubmitted.With(priority).Inc()
	}
}

func (m *ServerMetrics) jobCompleted(outcome string) {
	if m != nil {
		m.JobsCompleted.With(outcome).Inc()
	}
}

func (m *ServerMetrics) jobShed() {
	if m != nil {
		m.JobsShed.Inc()
	}
}

func (m *ServerMetrics) setQueueDepth(depth int) {
	if m != nil {
		m.QueueDepth.Set(float64(depth))
	}
}

func (m *ServerMetrics) resultsExpired(n int) {
	if m != nil && n > 0 {
		m.ResultsExpired.Add(float64(n))
	}
}

func (m *ServerMetrics) observeJobWait(d time.Duration) {
	if m != nil {
		m.JobWaitSeconds.Observe(d.Seconds())
	}
}

func (m *ServerMetrics) observeJobRun(d time.Duration) {
	if m != nil {
		m.JobRunSeconds.Observe(d.Seconds())
	}
}

// CAS observations; safe on nil receivers.

func (m *ServerMetrics) casHit() {
	if m != nil {
		m.CASHits.Inc()
	}
}

func (m *ServerMetrics) casMiss() {
	if m != nil {
		m.CASMisses.Inc()
	}
}

func (m *ServerMetrics) casPeerFill() {
	if m != nil {
		m.CASPeerFills.Inc()
	}
}

func (m *ServerMetrics) jobCoalesced() {
	if m != nil {
		m.JobsCoalesced.Inc()
	}
}

// statusRecorder captures the status code written by a handler. It
// forwards the optional http.Flusher interface so instrumented handlers
// can stream: the job API flushes a progress event per job state change,
// and a wrapper that swallowed Flush would buffer the whole stream until
// the job finished. Hijacker is deliberately not forwarded — no endpoint
// takes over the connection, and hijacked connections would escape the
// status/latency accounting this wrapper exists for.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.code = code
	sr.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer's Flusher; a no-op when the
// underlying writer cannot flush (matching http.NewResponseController's
// fallback behavior for plain writers).
func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the wrapped writer to http.NewResponseController, so
// handlers using the controller API reach the real connection too.
func (sr *statusRecorder) Unwrap() http.ResponseWriter { return sr.ResponseWriter }

// metricsPath collapses request paths into a bounded label set so a
// scanner cannot inflate series cardinality; job and cache paths carry
// per-resource suffixes and are collapsed onto their route patterns.
func metricsPath(path string) string {
	switch path {
	case "/v1/sample", "/v1/health", "/v1/jobs":
		return path
	}
	switch {
	case strings.HasPrefix(path, "/v1/jobs/"):
		if strings.HasSuffix(path, "/stream") {
			return "/v1/jobs/{id}/stream"
		}
		return "/v1/jobs/{id}"
	case strings.HasPrefix(path, "/v1/cache/"):
		return "/v1/cache/{fp}"
	}
	return "other"
}

// instrument wraps next with request counting and latency observation.
func (m *ServerMetrics) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sr := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sr, r)
		m.RequestSeconds.Observe(time.Since(start).Seconds())
		m.Requests.With(metricsPath(r.URL.Path), strconv.Itoa(sr.code)).Inc()
	})
}

// PoolMetrics is the registry-backed view of a failover Pool: total
// failovers, per-backend request latency and error counts, and each
// backend's live circuit state. A nil *PoolMetrics disables recording.
type PoolMetrics struct {
	Failovers           *obs.Counter      // pool_failovers_total
	RequestSeconds      *obs.HistogramVec // pool_request_seconds{backend}
	RequestErrors       *obs.CounterVec   // pool_request_errors_total{backend}
	CircuitOpen         *obs.GaugeVec     // pool_backend_circuit_open{backend}
	ConsecutiveFailures *obs.GaugeVec     // pool_backend_consecutive_failures{backend}
}

// NewPoolMetrics registers the pool metric families on r.
func NewPoolMetrics(r *obs.Registry) *PoolMetrics {
	return &PoolMetrics{
		Failovers:           r.Counter("pool_failovers_total", "Jobs moved to another backend after a failure."),
		RequestSeconds:      r.HistogramVec("pool_request_seconds", "Sampling request latency per backend.", obs.DefaultLatencyBuckets, "backend"),
		RequestErrors:       r.CounterVec("pool_request_errors_total", "Failed sampling requests per backend.", "backend"),
		CircuitOpen:         r.GaugeVec("pool_backend_circuit_open", "1 while the backend's circuit breaker is rejecting jobs.", "backend"),
		ConsecutiveFailures: r.GaugeVec("pool_backend_consecutive_failures", "Consecutive failures currently counted against the backend.", "backend"),
	}
}

// observeRequest records one backend attempt; safe on a nil receiver.
func (m *PoolMetrics) observeRequest(backend string, d time.Duration, err error) {
	if m == nil {
		return
	}
	m.RequestSeconds.With(backend).Observe(d.Seconds())
	if err != nil {
		m.RequestErrors.With(backend).Inc()
	}
}

// observeRequestSeed materialises a backend's latency and error series
// so they render at zero before the first job; safe on nil.
func (m *PoolMetrics) observeRequestSeed(backend string) {
	if m == nil {
		return
	}
	m.RequestSeconds.With(backend)
	m.RequestErrors.With(backend)
}

func (m *PoolMetrics) recordFailover() {
	if m != nil {
		m.Failovers.Inc()
	}
}

// setCircuit publishes one backend's breaker state; safe on nil.
func (m *PoolMetrics) setCircuit(backend string, consecutive int, open bool) {
	if m == nil {
		return
	}
	v := 0.0
	if open {
		v = 1
	}
	m.CircuitOpen.With(backend).Set(v)
	m.ConsecutiveFailures.With(backend).Set(float64(consecutive))
}
