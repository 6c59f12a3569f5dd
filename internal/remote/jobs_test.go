package remote

// End-to-end tests of the async job API: submit/poll/stream/cancel,
// admission-control shedding under a saturated queue (the fault
// injection half of the service-layer work), and the content-addressed
// model cache including the 412 upload flow and peer fills.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"qsmt/internal/anneal"
	"qsmt/internal/obs"
	"qsmt/internal/qubo"
)

// gateSampler blocks every job until released, reporting when a job has
// actually started, so tests can hold the worker pool busy at a known
// point.
type gateSampler struct {
	started chan struct{}
	release chan struct{}
}

func newGateSampler() *gateSampler {
	return &gateSampler{
		started: make(chan struct{}, 64),
		release: make(chan struct{}),
	}
}

func (g *gateSampler) Sample(c *qubo.Compiled) (*anneal.SampleSet, error) {
	return g.SampleContext(context.Background(), c)
}

func (g *gateSampler) SampleContext(ctx context.Context, c *qubo.Compiled) (*anneal.SampleSet, error) {
	g.started <- struct{}{}
	select {
	case <-g.release:
	case <-ctx.Done():
		return nil, fmt.Errorf("sampling aborted: %w", ctx.Err())
	}
	x := make([]qubo.Bit, c.N)
	for i := range x {
		x[i] = 1
	}
	return anneal.Aggregate([]anneal.Sample{{X: x, Energy: c.Energy(x), Occurrences: 1}}), nil
}

// startJobServer wires a full job-serving annealerd: HTTP handler plus
// a live ServeJobs worker pool, torn down with the test.
func startJobServer(t *testing.T, srv *Server) *httptest.Server {
	t.Helper()
	hts := httptest.NewServer(srv.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeJobs(ctx)
	}()
	t.Cleanup(func() {
		hts.Close()
		cancel()
		<-done
	})
	return hts
}

func TestJobAPIEndToEnd(t *testing.T) {
	srv := &Server{
		Jobs:    NewJobQueue(16, time.Minute),
		CAS:     NewModelCAS(16),
		Metrics: NewServerMetrics(obs.NewRegistry()),
	}
	hts := startJobServer(t, srv)
	c := &Client{BaseURL: hts.URL, Reads: 4, Sweeps: 50, Seed: 1, ClientID: "e2e"}

	compiled := twoVarModel()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ss, err := c.SampleJob(ctx, compiled, Job{}, PriorityInteractive)
	if err != nil {
		t.Fatalf("SampleJob: %v", err)
	}
	best := ss.Best()
	if best.Energy != -2 || best.X[0] != 1 || best.X[1] != 1 {
		t.Fatalf("async path found %v energy %v, want ground state 11 / -2", best.X, best.Energy)
	}

	// The content-addressed flow ran: first submission missed (412 →
	// upload), every later resolve hits.
	if got := srv.Metrics.CASMisses.Value(); got != 1 {
		t.Fatalf("CAS misses = %v, want exactly 1 (the pre-upload probe)", got)
	}
	if got := srv.Metrics.CASHits.Value(); got < 1 {
		t.Fatalf("CAS hits = %v, want >= 1 (post-upload resolves)", got)
	}
	// A second job over the same model submits by fingerprint alone.
	if _, err := c.SampleJob(ctx, compiled, Job{Seed: 2}, PriorityBatch); err != nil {
		t.Fatalf("second SampleJob: %v", err)
	}
	if got := srv.Metrics.CASMisses.Value(); got != 1 {
		t.Fatalf("CAS misses after second job = %v, want still 1", got)
	}
	if got := srv.Metrics.JobsCompleted.With("done").Value(); got != 2 {
		t.Fatalf("completed jobs = %v, want 2", got)
	}
}

// TestJobAPISheddingUnderSaturation is the fault-injection test: with
// the single worker pinned and the queue at capacity, further
// submissions must shed with 429 + a Retry-After hint instead of
// queueing unboundedly, and the shed must be visible in metrics.
func TestJobAPISheddingUnderSaturation(t *testing.T) {
	gate := newGateSampler()
	srv := &Server{
		NewSampler: func(SampleRequest) interface {
			Sample(*qubo.Compiled) (*anneal.SampleSet, error)
		} {
			return gate
		},
		Jobs:       NewJobQueue(2, time.Minute),
		JobWorkers: 1,
		Metrics:    NewServerMetrics(obs.NewRegistry()),
	}
	hts := startJobServer(t, srv)
	defer close(gate.release)
	c := &Client{BaseURL: hts.URL, ClientID: "sat", MaxRetries: -1}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	compiled := twoVarModel()

	// Job 1 occupies the only worker…
	firstID, err := c.SubmitJob(ctx, compiled, Job{}, PriorityBatch)
	if err != nil {
		t.Fatalf("first submit: %v", err)
	}
	select {
	case <-gate.started:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never started the first job")
	}
	// …jobs 2 and 3 fill the queue to its bound (distinct seeds keep
	// them from coalescing onto the pinned job)…
	for i := 0; i < 2; i++ {
		if _, err := c.SubmitJob(ctx, compiled, Job{Seed: int64(i + 1)}, PriorityBatch); err != nil {
			t.Fatalf("queue-filling submit %d: %v", i, err)
		}
	}
	// …and job 4 must shed.
	_, err = c.SubmitJob(ctx, compiled, Job{Seed: 3}, PriorityBatch)
	se, ok := asStatusError(err)
	if !ok || se.Code != http.StatusTooManyRequests {
		t.Fatalf("submit into full queue = %v, want 429", err)
	}
	if se.RetryAfter < time.Second {
		t.Fatalf("429 carries Retry-After %v, want >= 1s", se.RetryAfter)
	}
	if got := srv.Metrics.JobsShed.Value(); got != 1 {
		t.Fatalf("jobs_shed_total = %v, want 1", got)
	}

	// Draining the gate clears the backlog; the service admits again and
	// the pinned first job settles as done.
	for i := 0; i < 3; i++ {
		gate.release <- struct{}{}
	}
	st, err := c.WaitJob(ctx, firstID)
	if err != nil || st.State != "done" {
		t.Fatalf("first job after drain = %+v, %v; want done", st, err)
	}
	if _, err := c.SubmitJob(ctx, compiled, Job{}, PriorityBatch); err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
	gate.release <- struct{}{}
}

func asStatusError(err error) (*StatusError, bool) {
	var se *StatusError
	ok := errors.As(err, &se)
	return se, ok
}

func TestJobLongPollAndStream(t *testing.T) {
	gate := newGateSampler()
	srv := &Server{
		NewSampler: func(SampleRequest) interface {
			Sample(*qubo.Compiled) (*anneal.SampleSet, error)
		} {
			return gate
		},
		Jobs:       NewJobQueue(8, time.Minute),
		JobWorkers: 1,
		Metrics:    NewServerMetrics(obs.NewRegistry()),
	}
	hts := startJobServer(t, srv)
	defer close(gate.release)
	c := &Client{BaseURL: hts.URL, ClientID: "poll"}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	id, err := c.SubmitJob(ctx, twoVarModel(), Job{}, PriorityBatch)
	if err != nil {
		t.Fatal(err)
	}
	<-gate.started

	// A short long-poll returns the live (non-terminal) state once the
	// wait elapses.
	st, err := c.JobStatus(ctx, id, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "running" {
		t.Fatalf("long-poll state = %q, want running", st.State)
	}

	// The SSE stream delivers the running event immediately, then the
	// terminal event when the job settles.
	resp, err := http.Get(hts.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type = %q", ct)
	}
	events := make(chan JobStatusResponse, 8)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
				var ev JobStatusResponse
				if json.Unmarshal([]byte(data), &ev) == nil {
					events <- ev
				}
			}
		}
	}()
	select {
	case ev := <-events:
		if ev.State != "running" {
			t.Fatalf("first stream event state = %q, want running", ev.State)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no stream event while job running (flush lost?)")
	}
	gate.release <- struct{}{}
	deadline := time.After(10 * time.Second)
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatal("stream closed before the terminal event")
			}
			if ev.State == "done" {
				if ev.Result == nil || len(ev.Result.Samples) == 0 {
					t.Fatalf("terminal event carries no result: %+v", ev)
				}
				return
			}
		case <-deadline:
			t.Fatal("terminal stream event never arrived")
		}
	}
}

func TestJobCancelEndpoint(t *testing.T) {
	gate := newGateSampler()
	srv := &Server{
		NewSampler: func(SampleRequest) interface {
			Sample(*qubo.Compiled) (*anneal.SampleSet, error)
		} {
			return gate
		},
		Jobs:       NewJobQueue(8, time.Minute),
		JobWorkers: 1,
	}
	hts := startJobServer(t, srv)
	defer close(gate.release)
	c := &Client{BaseURL: hts.URL, ClientID: "cxl"}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	compiled := twoVarModel()

	runningID, err := c.SubmitJob(ctx, compiled, Job{}, PriorityBatch)
	if err != nil {
		t.Fatal(err)
	}
	<-gate.started
	queuedID, err := c.SubmitJob(ctx, compiled, Job{}, PriorityBatch)
	if err != nil {
		t.Fatal(err)
	}

	// Canceling a queued job settles it without ever sampling.
	if err := c.CancelJob(ctx, queuedID); err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	st, err := c.JobStatus(ctx, queuedID, 0)
	if err != nil || st.State != "canceled" {
		t.Fatalf("canceled queued job = %+v, %v", st, err)
	}
	// Canceling again is a 409 conflict.
	if err := c.CancelJob(ctx, queuedID); err == nil {
		t.Fatal("re-cancel succeeded, want 409")
	} else if se, ok := asStatusError(err); !ok || se.Code != http.StatusConflict {
		t.Fatalf("re-cancel = %v, want 409", err)
	}
	// Unknown IDs are 404.
	if err := c.CancelJob(ctx, "j00000000-000000"); err == nil {
		t.Fatal("cancel of unknown job succeeded")
	} else if se, ok := asStatusError(err); !ok || se.Code != http.StatusNotFound {
		t.Fatalf("cancel unknown = %v, want 404", err)
	}
	// Canceling the running job interrupts its sampling context.
	if err := c.CancelJob(ctx, runningID); err != nil {
		t.Fatalf("cancel running: %v", err)
	}
	st, err = c.WaitJob(ctx, runningID)
	if err != nil || st.State != "canceled" {
		t.Fatalf("canceled running job = %+v, %v", st, err)
	}
}

func TestCacheEndpoints(t *testing.T) {
	srv := &Server{
		Jobs:    NewJobQueue(8, time.Minute),
		CAS:     NewModelCAS(16),
		Metrics: NewServerMetrics(obs.NewRegistry()),
	}
	hts := startJobServer(t, srv)
	compiled := twoVarModel()
	model := modelFromCompiled(compiled)
	fp := qubo.FingerprintOf(model).String()
	var text strings.Builder
	if _, err := model.WriteTo(&text); err != nil {
		t.Fatal(err)
	}

	put := func(path, body string) *http.Response {
		req, err := http.NewRequest(http.MethodPut, hts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	// Upload under a mismatched fingerprint is rejected (flip one hex
	// digit of the hash; the result is still a well-formed fingerprint).
	flip := "0"
	if fp[len(fp)-1] == '0' {
		flip = "1"
	}
	wrong := fp[:len(fp)-1] + flip
	if resp := put("/v1/cache/"+wrong, text.String()); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mismatched PUT = %d, want 400", resp.StatusCode)
	}
	// …and stores nothing, under either fingerprint.
	if n := srv.CAS.Len(); n != 0 {
		t.Fatalf("CAS holds %d models after a rejected PUT, want 0", n)
	}
	if resp, err := http.Head(hts.URL + "/v1/cache/" + fp); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("HEAD on the body's fingerprint after a rejected PUT = %v %v, want 404", resp, err)
	}
	// Correct upload lands…
	if resp := put("/v1/cache/"+fp, text.String()); resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT = %d, want 201", resp.StatusCode)
	}
	// …HEAD sees it, GET round-trips the canonical text.
	headResp, err := http.Head(hts.URL + "/v1/cache/" + fp)
	if err != nil || headResp.StatusCode != http.StatusOK {
		t.Fatalf("HEAD = %v %v, want 200", headResp, err)
	}
	getResp, err := http.Get(hts.URL + "/v1/cache/" + fp)
	if err != nil {
		t.Fatal(err)
	}
	defer getResp.Body.Close()
	got, _ := io.ReadAll(getResp.Body)
	if string(got) != text.String() {
		t.Fatalf("GET returned %q, want the uploaded model text", got)
	}
	// Unknown fingerprints are 404 (same shape, different hash).
	miss := qubo.FingerprintOf(modelFromCompiled(func() *qubo.Compiled {
		m := qubo.New(2)
		m.AddLinear(0, 7)
		return m.Compile()
	}())).String()
	if resp, err := http.Get(hts.URL + "/v1/cache/" + miss); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unknown = %v %v, want 404", resp, err)
	}

	// The sync path accepts fingerprint-only submissions once cached.
	body, _ := json.Marshal(SampleRequest{Fingerprint: fp, Reads: 4, Sweeps: 50, Seed: 1})
	resp, err := http.Post(hts.URL+"/v1/sample", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("fingerprint-only /v1/sample = %d: %s", resp.StatusCode, raw)
	}
}

// TestCachePeerFill: replica B misses locally but fills from replica A,
// so one upload anywhere in the pool serves every backend.
func TestCachePeerFill(t *testing.T) {
	srvA := &Server{
		Jobs: NewJobQueue(8, time.Minute),
		CAS:  NewModelCAS(16),
	}
	htsA := startJobServer(t, srvA)
	srvB := &Server{
		Jobs:       NewJobQueue(8, time.Minute),
		CAS:        NewModelCAS(16),
		CachePeers: []string{htsA.URL},
		Metrics:    NewServerMetrics(obs.NewRegistry()),
	}
	htsB := startJobServer(t, srvB)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	compiled := twoVarModel()
	cA := &Client{BaseURL: htsA.URL, ClientID: "warm"}
	fp, err := cA.UploadModel(ctx, compiled)
	if err != nil {
		t.Fatalf("upload to A: %v", err)
	}

	// Fingerprint-only submission to B: local miss, peer fill from A.
	cB := &Client{BaseURL: htsB.URL, ClientID: "fill", Reads: 4, Sweeps: 50, Seed: 1}
	ss, err := cB.SampleJob(ctx, compiled, Job{}, PriorityBatch)
	if err != nil {
		t.Fatalf("SampleJob via B: %v", err)
	}
	if best := ss.Best(); best.Energy != -2 {
		t.Fatalf("best energy %v, want -2", best.Energy)
	}
	if got := srvB.Metrics.CASPeerFills.Value(); got != 1 {
		t.Fatalf("peer fills on B = %v, want 1", got)
	}
	if srvB.CAS.Len() != 1 {
		t.Fatalf("B's CAS holds %d models, want 1 after fill", srvB.CAS.Len())
	}
	// The peer-filled entry is the same content A serves.
	if resp, err := http.Head(htsB.URL + "/v1/cache/" + fp); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("HEAD on B after fill = %v %v, want 200", resp, err)
	}
}

// TestJobClientFallsBackInlineWithoutCAS: a service with the job API
// but no model cache still serves clients that prefer content-addressed
// submission — they fall back to inline model text.
func TestJobClientFallsBackInlineWithoutCAS(t *testing.T) {
	srv := &Server{
		Jobs:    NewJobQueue(8, time.Minute),
		Metrics: NewServerMetrics(obs.NewRegistry()),
	}
	hts := startJobServer(t, srv)
	c := &Client{BaseURL: hts.URL, ClientID: "nofp", Reads: 4, Sweeps: 50, Seed: 1}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ss, err := c.SampleJob(ctx, twoVarModel(), Job{}, PriorityBatch)
	if err != nil {
		t.Fatalf("SampleJob without CAS: %v", err)
	}
	if best := ss.Best(); best.Energy != -2 {
		t.Fatalf("best energy %v, want -2", best.Energy)
	}
}

// TestJobQueueDrainOnShutdown: canceling ServeJobs' context stops the
// workers without stranding the HTTP side, and closing the queue makes
// submissions report 503.
func TestJobQueueDrainOnShutdown(t *testing.T) {
	srv := &Server{
		Jobs:    NewJobQueue(8, time.Minute),
		Metrics: NewServerMetrics(obs.NewRegistry()),
	}
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv.ServeJobs(ctx)
	}()
	cancel()
	wg.Wait()
	srv.Jobs.Close()

	c := &Client{BaseURL: hts.URL, ClientID: "drain", MaxRetries: -1}
	_, err := c.SubmitJob(context.Background(), twoVarModel(), Job{}, PriorityBatch)
	se, ok := asStatusError(err)
	if !ok || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit after close = %v, want 503", err)
	}
}

// TestSampleJobCancelsAbandonedJob: a SampleJob whose context ends while
// it waits must cancel its job, or the service keeps sampling for
// nobody and holds the result until its TTL.
func TestSampleJobCancelsAbandonedJob(t *testing.T) {
	gate := newGateSampler()
	srv := &Server{
		NewSampler: func(SampleRequest) interface {
			Sample(*qubo.Compiled) (*anneal.SampleSet, error)
		} {
			return gate
		},
		Jobs:       NewJobQueue(8, time.Minute),
		JobWorkers: 1,
	}
	var mu sync.Mutex
	var polled string // the job ID the client long-polls
	handler := srv.Handler()
	hts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if id, ok := strings.CutPrefix(r.URL.Path, "/v1/jobs/"); ok && r.Method == http.MethodGet {
			mu.Lock()
			polled = id
			mu.Unlock()
		}
		handler.ServeHTTP(w, r)
	}))
	jobsCtx, stopJobs := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeJobs(jobsCtx)
	}()
	defer func() {
		hts.Close()
		stopJobs()
		<-done
	}()
	defer close(gate.release)

	c := &Client{BaseURL: hts.URL, ClientID: "abandon"}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if _, err := c.SampleJob(ctx, twoVarModel(), Job{}, PriorityInteractive); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SampleJob = %v, want the context's deadline", err)
	}
	mu.Lock()
	id := polled
	mu.Unlock()
	st, ok := srv.Jobs.Get(id)
	if !ok || st.State != JobCanceled {
		t.Fatalf("abandoned job %q = %+v (found %v), want canceled", id, st, ok)
	}
	if qs := srv.Jobs.Stats(); qs.Running != 0 {
		t.Fatalf("queue after abandon = %+v, want nothing running", qs)
	}
}
