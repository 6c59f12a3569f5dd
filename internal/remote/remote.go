// Package remote implements a network annealer service: the shape of a
// cloud quantum-annealing API (submit a QUBO, receive energy-sorted
// samples) over plain HTTP/JSON. The paper's pipeline "passes the QUBO
// matrix to a quantum (or simulated) annealer"; in production that
// annealer lives behind a solver API, and this package supplies both
// sides — a Server wrapping any local sampler, and a Client that
// satisfies the solver's Sampler contract, so a qsmt.Solver can
// transparently submit its string QUBOs to a remote annealer.
//
// Protocol (versioned under /v1):
//
//	POST /v1/sample   body:  {"qubo": "<text serialization>",
//	                          "reads": 64, "sweeps": 1000, "seed": 1}
//	                  reply: {"samples": [{"x": "0101…", "energy": -3,
//	                          "occurrences": 2}, …]}
//	GET  /v1/health   reply: {"status": "ok", "sampler": "…"}
//
// The QUBO travels in the deterministic text format of qubo.WriteTo.
//
// The package is built for production traffic: the Client retries
// transient failures (network errors, 5xx, 429) with exponential
// backoff + jitter and honors per-request contexts; the Pool client
// spreads jobs across several backends with circuit-breaker failover;
// and the Server clamps per-job work, sheds load with 429 when
// saturated, and bounds each job's sampling phase with a deadline.
package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qsmt/internal/anneal"
	"qsmt/internal/obs"
	"qsmt/internal/qubo"
)

// SampleRequest is the wire form of a sampling job. A job names its
// model either inline (QUBO, the qubo.WriteTo text) or by content
// address (Fingerprint, the qubo.Fingerprint wire string of a model the
// service already holds in its compile cache — see the /v1/cache
// endpoints). Fingerprint-only submissions that miss the cache are
// rejected with 412 Precondition Failed; the client uploads the model
// and retries.
type SampleRequest struct {
	QUBO        string `json:"qubo,omitempty"`        // qubo.WriteTo text
	Fingerprint string `json:"fingerprint,omitempty"` // qubo.Fingerprint.String()
	Reads       int    `json:"reads,omitempty"`       // 0 = server default
	Sweeps      int    `json:"sweeps,omitempty"`      // 0 = server default
	Seed        int64  `json:"seed,omitempty"`        // 0 = server default
}

// WireSample is one returned read.
type WireSample struct {
	X           string  `json:"x"` // "0"/"1" per variable
	Energy      float64 `json:"energy"`
	Occurrences int     `json:"occurrences"`
}

// SampleResponse is the wire form of a result.
type SampleResponse struct {
	Samples []WireSample `json:"samples"`
}

// HealthResponse is the /v1/health reply.
type HealthResponse struct {
	Status  string `json:"status"`
	Sampler string `json:"sampler"`
}

// errorResponse is the JSON error envelope.
type errorResponse struct {
	Error string `json:"error"`
}

// MaxRequestBytes bounds accepted request bodies (16 MiB covers QUBOs
// far larger than any string constraint here produces).
const MaxRequestBytes = 16 << 20

// MaxResponseBytes bounds client-accepted response bodies.
const MaxResponseBytes = 16 << 20

// Server-side caps applied to the default sampler path so a client
// cannot pin the server with an absurd reads/sweeps request.
const (
	DefaultMaxReads  = 1024
	DefaultMaxSweeps = 100_000
)

// Server serves the annealer API over any sampler factory. The factory
// receives the per-request knobs so each job can carry its own seed.
// The zero value is production-safe: the default sampler path clamps
// reads/sweeps to DefaultMaxReads/DefaultMaxSweeps and rejects negative
// knobs with 400.
type Server struct {
	// NewSampler builds the sampler for one request; nil defaults to a
	// SimulatedAnnealer honoring the request's reads/sweeps/seed,
	// clamped to the server's caps. Samplers that also implement
	// anneal.ContextSampler are cancelled when the request dies or the
	// sampling deadline expires.
	NewSampler func(req SampleRequest) interface {
		Sample(*qubo.Compiled) (*anneal.SampleSet, error)
	}
	// Description appears in health responses.
	Description string
	// MaxReads / MaxSweeps cap the default sampler path. 0 selects
	// DefaultMaxReads / DefaultMaxSweeps.
	MaxReads  int
	MaxSweeps int
	// SampleTimeout bounds each job's sampling phase; expired jobs get
	// 503 so resilient clients retry elsewhere. 0 = no deadline.
	SampleTimeout time.Duration
	// MaxConcurrent bounds in-flight sampling jobs; excess requests get
	// 429 with Retry-After instead of queueing. 0 = unlimited.
	MaxConcurrent int
	// Metrics, when non-nil, records request counts/latency, in-flight
	// jobs and load-shedding outcomes (see NewServerMetrics).
	Metrics *ServerMetrics
	// Collector, when non-nil, is attached to samplers built by the
	// default path, so the service's /metrics exposes substrate activity
	// (sweeps, flips, resyncs) per job. Custom NewSampler factories wire
	// their own collectors.
	Collector *obs.Collector

	// Jobs, when non-nil, enables the async job API (POST /v1/jobs,
	// GET /v1/jobs/{id}, …) backed by this queue. Run ServeJobs to
	// actually execute queued jobs.
	Jobs *JobQueue
	// JobWorkers is how many jobs ServeJobs executes concurrently.
	// 0 selects MaxConcurrent, or 1 if that is unset too.
	JobWorkers int
	// CAS, when non-nil, enables the content-addressed model cache
	// (PUT/GET/HEAD /v1/cache/{fp}) and fingerprint-only submissions.
	CAS *ModelCAS
	// CachePeers lists sibling replicas' base URLs; a fingerprint-only
	// submission that misses the local CAS tries each peer's cache
	// before answering 412, so pool replicas reuse one upload.
	CachePeers []string
	// PeerClient performs peer cache fetches; nil selects a client with
	// a short timeout.
	PeerClient *http.Client

	semOnce sync.Once
	sem     chan struct{}

	expiredSeen atomic.Uint64 // queue expiries already published to Metrics
	depthMu     sync.Mutex    // orders queue-depth reads with their gauge stores
}

// semaphore lazily builds the concurrency limiter (nil = unlimited).
func (s *Server) semaphore() chan struct{} {
	s.semOnce.Do(func() {
		if s.MaxConcurrent > 0 {
			s.sem = make(chan struct{}, s.MaxConcurrent)
		}
	})
	return s.sem
}

// Handler returns the HTTP handler for the service. With Metrics set,
// every request is counted and timed. The job API routes appear only
// when Jobs is set, and the cache routes only when CAS is set.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/sample", s.handleSample)
	mux.HandleFunc("/v1/health", s.handleHealth)
	if s.Jobs != nil {
		mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
		mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
		mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleJobStream)
		mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	}
	if s.CAS != nil {
		mux.HandleFunc("PUT /v1/cache/{fp}", s.handleCachePut)
		mux.HandleFunc("GET /v1/cache/{fp}", s.handleCacheGet)
		mux.HandleFunc("HEAD /v1/cache/{fp}", s.handleCacheGet)
	}
	if s.Metrics == nil {
		return mux
	}
	return s.Metrics.instrument(mux)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	desc := s.Description
	if desc == "" {
		desc = "simulated-annealer"
	}
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ok", Sampler: desc})
}

func (s *Server) handleSample(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if sem := s.semaphore(); sem != nil {
		select {
		case sem <- struct{}{}:
			defer func() { <-sem }()
		default:
			s.Metrics.shedSaturated()
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "server saturated")
			return
		}
	}
	s.Metrics.jobStarted()
	defer s.Metrics.jobDone()
	body, err := io.ReadAll(io.LimitReader(r.Body, MaxRequestBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return
	}
	if len(body) > MaxRequestBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "request exceeds limit")
		return
	}
	var req SampleRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "malformed JSON: "+err.Error())
		return
	}
	if se := validateRequest(req); se != nil {
		writeStatusError(w, se)
		return
	}
	compiled, se := s.resolveModel(r.Context(), req)
	if se != nil {
		writeStatusError(w, se)
		return
	}
	resp, se := s.runSample(r.Context(), req, compiled)
	if se != nil {
		if r.Context().Err() != nil {
			return // client gone; nobody is reading the reply
		}
		writeStatusError(w, se)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// validateRequest checks the knobs every submission path shares.
func validateRequest(req SampleRequest) *StatusError {
	if req.Reads < 0 || req.Sweeps < 0 {
		return &StatusError{Code: http.StatusBadRequest, Message: "reads and sweeps must be non-negative"}
	}
	if req.QUBO == "" && req.Fingerprint == "" {
		return &StatusError{Code: http.StatusBadRequest, Message: "request names no model: set qubo or fingerprint"}
	}
	return nil
}

// resolveModel turns a request's model reference into a compiled QUBO:
// inline text is parsed (and inserted into the CAS when one is
// configured, so later fingerprint-only submissions hit), while a
// fingerprint-only request is answered from the CAS — locally, then
// from each configured peer replica — or rejected with 412 so the
// client knows to upload the model.
func (s *Server) resolveModel(ctx context.Context, req SampleRequest) (*qubo.Compiled, *StatusError) {
	if req.QUBO != "" {
		model, err := qubo.Read(strings.NewReader(req.QUBO))
		if err != nil {
			return nil, &StatusError{Code: http.StatusBadRequest, Message: "malformed QUBO: " + err.Error()}
		}
		compiled := model.Compile()
		if s.CAS != nil {
			s.CAS.put(qubo.FingerprintOf(model), req.QUBO, compiled)
		}
		return compiled, nil
	}
	fp, err := qubo.ParseFingerprint(req.Fingerprint)
	if err != nil {
		return nil, &StatusError{Code: http.StatusBadRequest, Message: "malformed fingerprint: " + err.Error()}
	}
	if s.CAS == nil {
		return nil, &StatusError{Code: http.StatusPreconditionFailed, Message: "no model cache configured; submit the model inline"}
	}
	if _, compiled, ok := s.CAS.get(fp); ok {
		s.Metrics.casHit()
		return compiled, nil
	}
	s.Metrics.casMiss()
	if compiled := s.fillFromPeers(ctx, fp); compiled != nil {
		s.Metrics.casPeerFill()
		return compiled, nil
	}
	return nil, &StatusError{Code: http.StatusPreconditionFailed,
		Message: "model " + req.Fingerprint + " not cached; upload it to /v1/cache/" + req.Fingerprint + " and retry"}
}

// runSample executes one sampling job against the compiled model,
// honoring the server's sampling deadline. Failures come back as
// *StatusError so the sync handler and the async job workers report
// identical statuses.
func (s *Server) runSample(ctx context.Context, req SampleRequest, compiled *qubo.Compiled) (*SampleResponse, *StatusError) {
	if s.SampleTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.SampleTimeout)
		defer cancel()
	}
	ss, err := anneal.SampleWithContext(ctx, s.sampler(req), compiled)
	if err != nil {
		switch {
		case errors.Is(err, context.Canceled):
			return nil, &StatusError{Code: http.StatusRequestTimeout, Message: "sampling canceled"}
		case errors.Is(err, context.DeadlineExceeded):
			s.Metrics.shedDeadline()
			return nil, &StatusError{Code: http.StatusServiceUnavailable, Message: "sampling deadline exceeded"}
		default:
			return nil, &StatusError{Code: http.StatusInternalServerError, Message: "sampling: " + err.Error()}
		}
	}
	if ss == nil || len(ss.Samples) == 0 {
		// A sampler that errors out is handled above; one that returns
		// success with zero samples is a backend bug. Reporting it as a
		// 502 here — the one seam both the sync handler and the async
		// job workers share — keeps the two paths' verdicts identical
		// and stops a well-formed-but-empty 200 from reaching solver
		// code that expects at least one read.
		return nil, &StatusError{Code: http.StatusBadGateway, Message: "sampler produced no samples"}
	}
	resp := &SampleResponse{Samples: make([]WireSample, 0, len(ss.Samples))}
	for _, sm := range ss.Samples {
		resp.Samples = append(resp.Samples, WireSample{
			X:           bitsToString(sm.X),
			Energy:      sm.Energy,
			Occurrences: sm.Occurrences,
		})
	}
	return resp, nil
}

func writeStatusError(w http.ResponseWriter, se *StatusError) {
	writeError(w, se.Code, se.Message)
}

func (s *Server) sampler(req SampleRequest) interface {
	Sample(*qubo.Compiled) (*anneal.SampleSet, error)
} {
	if s.NewSampler != nil {
		return s.NewSampler(req)
	}
	maxReads, maxSweeps := s.MaxReads, s.MaxSweeps
	if maxReads <= 0 {
		maxReads = DefaultMaxReads
	}
	if maxSweeps <= 0 {
		maxSweeps = DefaultMaxSweeps
	}
	reads, sweeps := req.Reads, req.Sweeps
	if reads > maxReads {
		reads = maxReads
	}
	if sweeps > maxSweeps {
		sweeps = maxSweeps
	}
	return &anneal.SimulatedAnnealer{
		Reads: reads, Sweeps: sweeps, Seed: req.Seed,
		Collector: s.Collector,
	}
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorResponse{Error: msg})
}

func bitsToString(x []qubo.Bit) string {
	b := make([]byte, len(x))
	for i, v := range x {
		b[i] = '0' + byte(v&1)
	}
	return string(b)
}

func stringToBits(s string) ([]qubo.Bit, error) {
	x := make([]qubo.Bit, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '0':
		case '1':
			x[i] = 1
		default:
			return nil, fmt.Errorf("remote: invalid bit character %q", s[i])
		}
	}
	return x, nil
}

// Client retry defaults. Retries apply only to transient failures:
// network errors, 5xx responses, and 429 saturation signals.
const (
	DefaultMaxRetries      = 2
	DefaultRetryBackoff    = 100 * time.Millisecond
	DefaultRetryMaxBackoff = 2 * time.Second
)

// ErrResponseTooLarge reports that a service reply exceeded the
// client's response-size cap. Distinct from a malformed-JSON error: the
// body was truncated by the read limit, not corrupted by the service.
var ErrResponseTooLarge = errors.New("remote: response exceeds size limit")

// StatusError is a non-200 service reply, preserving the HTTP status so
// retry and failover logic can distinguish transient (5xx, 429) from
// permanent (4xx) failures.
type StatusError struct {
	Code    int
	Message string // server's error envelope, when present
	// RetryAfter is the server's Retry-After hint on 429 replies
	// (0 when absent); resilient submitters wait at least this long.
	RetryAfter time.Duration
}

// Error implements error.
func (e *StatusError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("remote: service error (%d): %s", e.Code, e.Message)
	}
	return fmt.Sprintf("remote: service returned status %d", e.Code)
}

// Transient reports whether the failure is worth retrying.
func (e *StatusError) Transient() bool {
	return e.Code >= 500 || e.Code == http.StatusTooManyRequests
}

// transientErr classifies an error from one request attempt: context
// expiry is never transient (the caller's budget is gone), 4xx replies
// are permanent, and network-level failures plus 5xx/429 are transient.
func transientErr(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var se *StatusError
	if errors.As(err, &se) {
		return se.Transient()
	}
	var ue *url.Error
	return errors.As(err, &ue)
}

// Client submits sampling jobs to a remote annealer service. It
// satisfies the solver's Sampler and SamplerContext contracts, so it can
// be plugged straight into qsmt.Options. Transient failures are retried
// with exponential backoff and jitter; a context passed to SampleContext
// bounds the whole call including backoff sleeps.
type Client struct {
	BaseURL    string        // e.g. "http://annealer:8080"
	HTTPClient *http.Client  // nil = http.DefaultClient with Timeout
	Timeout    time.Duration // per-attempt timeout; default 60s (only when HTTPClient is nil)
	Reads      int           // per-job reads (0 = server default)
	Sweeps     int           // per-job sweeps
	Seed       int64         // per-job seed
	// ClientID names this client to the job API's fairness scheduler
	// (the X-Client-ID header); empty means the server buckets by
	// remote host.
	ClientID string

	// MaxRetries bounds extra attempts after the first on transient
	// failures. 0 selects DefaultMaxRetries; negative disables retries.
	MaxRetries int
	// RetryBackoff is the first retry delay, doubled per retry up to
	// RetryMaxBackoff, with ±50% jitter. Zero selects the defaults.
	RetryBackoff    time.Duration
	RetryMaxBackoff time.Duration
	// MaxResponseBytes caps accepted reply bodies (0 = MaxResponseBytes
	// package default).
	MaxResponseBytes int64

	retries atomic.Int64
}

// Retries reports how many retry attempts this client has performed
// across its lifetime (not counting first attempts).
func (c *Client) Retries() int64 { return c.retries.Load() }

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	timeout := c.Timeout
	if timeout <= 0 {
		timeout = 60 * time.Second
	}
	return &http.Client{Timeout: timeout}
}

func (c *Client) maxResponseBytes() int64 {
	if c.MaxResponseBytes > 0 {
		return c.MaxResponseBytes
	}
	return MaxResponseBytes
}

// Job carries per-job sampling knobs. Zero fields fall back to the
// submitting client's own Reads/Sweeps/Seed (and from there to the
// server defaults), so the zero Job changes nothing.
type Job struct {
	Reads  int
	Sweeps int
	Seed   int64
}

// Sample implements the sampler contract by round-tripping through the
// service.
func (c *Client) Sample(compiled *qubo.Compiled) (*anneal.SampleSet, error) {
	return c.SampleContext(context.Background(), compiled)
}

// SampleContext submits the job under ctx, retrying transient failures
// with exponential backoff + jitter until the retry budget or the
// context runs out.
func (c *Client) SampleContext(ctx context.Context, compiled *qubo.Compiled) (*anneal.SampleSet, error) {
	return c.SampleJobContext(ctx, compiled, Job{})
}

// SampleJobContext is SampleContext with per-job knobs overriding the
// client's configured Reads/Sweeps/Seed, so one client can serve jobs
// with differing parameters (a proxy forwarding request knobs, a solver
// re-seeding retries).
func (c *Client) SampleJobContext(ctx context.Context, compiled *qubo.Compiled, job Job) (*anneal.SampleSet, error) {
	if err := c.ready(compiled); err != nil {
		return nil, err
	}
	req := c.request(job)
	var err error
	if req.QUBO, err = wireText(modelFromCompiled(compiled)); err != nil {
		return nil, err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var sr SampleResponse
	if err := c.retry(ctx, func() error {
		return c.do(ctx, http.MethodPost, "/v1/sample", "application/json", body, &sr)
	}); err != nil {
		return nil, err
	}
	return decodeSamples(sr.Samples, compiled)
}

// ready rejects a call that cannot reach a service.
func (c *Client) ready(compiled *qubo.Compiled) error {
	if compiled == nil {
		return errors.New("remote: nil model")
	}
	if c.BaseURL == "" {
		return errors.New("remote: client has no BaseURL")
	}
	return nil
}

// modelFromCompiled reconstructs the serializable model from the
// compiled view, for the wire text and the content fingerprint.
func modelFromCompiled(compiled *qubo.Compiled) *qubo.Model {
	model := qubo.New(compiled.N)
	model.AddOffset(compiled.Offset)
	for i, h := range compiled.Linear {
		if h != 0 {
			model.SetLinear(i, h)
		}
	}
	for i := 0; i < compiled.N; i++ {
		for p := compiled.RowStart[i]; p < compiled.RowStart[i+1]; p++ {
			if j := int(compiled.NeighJ[p]); j > i {
				model.SetQuadratic(i, j, compiled.NeighW[p])
			}
		}
	}
	return model
}

// wireText renders a model in the qubo.WriteTo text the service reads.
func wireText(model *qubo.Model) (string, error) {
	var text strings.Builder
	if _, err := model.WriteTo(&text); err != nil {
		return "", fmt.Errorf("remote: serializing QUBO: %w", err)
	}
	return text.String(), nil
}

// request returns a job's wire knobs, naming no model yet; zero job
// fields fall back to the client's configured knobs.
func (c *Client) request(job Job) SampleRequest {
	req := SampleRequest{Reads: job.Reads, Sweeps: job.Sweeps, Seed: job.Seed}
	if req.Reads == 0 {
		req.Reads = c.Reads
	}
	if req.Sweeps == 0 {
		req.Sweeps = c.Sweeps
	}
	if req.Seed == 0 {
		req.Seed = c.Seed
	}
	return req
}

// do is the client's one exchange with the service: method on path,
// with body sent as contentType when non-nil. The reply is read up to
// the client's size cap; a non-2xx reply comes back as *StatusError
// carrying the error envelope's message and any Retry-After hint, and
// a 2xx reply is decoded into out when out is non-nil. Requests to the
// job API carry the client's X-Client-ID for the fairness scheduler.
func (c *Client) do(ctx context.Context, method, path, contentType string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, strings.TrimRight(c.BaseURL, "/")+path, rd)
	if err != nil {
		return fmt.Errorf("remote: building request: %w", err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if c.ClientID != "" && strings.HasPrefix(path, "/v1/jobs") {
		req.Header.Set("X-Client-ID", c.ClientID)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("remote: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	limit := c.maxResponseBytes()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err != nil {
		return fmt.Errorf("remote: reading response: %w", err)
	}
	if int64(len(raw)) > limit {
		return fmt.Errorf("%w (%d bytes)", ErrResponseTooLarge, limit)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		se := &StatusError{Code: resp.StatusCode, RetryAfter: parseRetryAfter(resp.Header)}
		var er errorResponse
		if json.Unmarshal(raw, &er) == nil {
			se.Message = er.Error
		}
		return se
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("remote: malformed response: %w", err)
	}
	return nil
}

// retry runs op until it succeeds, fails permanently, or the retry
// budget or ctx runs out. A transient failure (transientErr) is retried
// after the service's Retry-After hint when it gave one — honored
// exactly, sub-second hints included: the service's drain estimate
// beats blind backoff in both directions — and otherwise after the
// attempt's jittered exponential backoff. Every retry counts in
// Retries; a context that ends during a wait is reported together with
// the last attempt's error.
func (c *Client) retry(ctx context.Context, op func() error) error {
	maxRetries := c.MaxRetries
	if maxRetries == 0 {
		maxRetries = DefaultMaxRetries
	} else if maxRetries < 0 {
		maxRetries = 0
	}
	backoff := c.RetryBackoff
	if backoff <= 0 {
		backoff = DefaultRetryBackoff
	}
	maxBackoff := c.RetryMaxBackoff
	if maxBackoff <= 0 {
		maxBackoff = DefaultRetryMaxBackoff
	}
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil || attempt >= maxRetries || !transientErr(err) || ctx.Err() != nil {
			return err
		}
		c.retries.Add(1)
		wait := backoffDelay(backoff, maxBackoff, attempt)
		var se *StatusError
		if errors.As(err, &se) && se.RetryAfter > 0 {
			wait = se.RetryAfter
		}
		if serr := sleepFor(ctx, wait); serr != nil {
			return fmt.Errorf("%w (last attempt: %v)", serr, err)
		}
	}
}

// backoffDelay is the attempt's exponential delay from base, capped at
// max, with ±50% jitter to decorrelate retry storms across clients.
func backoffDelay(base, max time.Duration, attempt int) time.Duration {
	d := base << uint(attempt)
	if d > max || d <= 0 {
		d = max
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// decodeSamples turns wire samples back into a local SampleSet, used by
// both the sync path and job-result claiming. Energies are re-evaluated
// locally: never trust remote energy labels.
func decodeSamples(samples []WireSample, compiled *qubo.Compiled) (*anneal.SampleSet, error) {
	raw := make([]anneal.Sample, 0, len(samples))
	for _, ws := range samples {
		x, err := stringToBits(ws.X)
		if err != nil {
			return nil, err
		}
		if len(x) != compiled.N {
			return nil, fmt.Errorf("remote: sample has %d variables, want %d", len(x), compiled.N)
		}
		occ := ws.Occurrences
		if occ <= 0 {
			occ = 1
		}
		raw = append(raw, anneal.Sample{X: x, Energy: compiled.Energy(x), Occurrences: occ})
	}
	if len(raw) == 0 {
		return nil, errors.New("remote: service returned no samples")
	}
	return anneal.Aggregate(raw), nil
}

// Health checks the service.
func (c *Client) Health() (*HealthResponse, error) {
	return c.HealthContext(context.Background())
}

// HealthContext checks the service under ctx.
func (c *Client) HealthContext(ctx context.Context) (*HealthResponse, error) {
	var hr HealthResponse
	if err := c.do(ctx, http.MethodGet, "/v1/health", "", nil, &hr); err != nil {
		return nil, err
	}
	return &hr, nil
}
