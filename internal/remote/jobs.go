package remote

// jobs.go is the async half of the annealer API — the submit/poll job
// model every cloud annealing service exposes (a sampling job can far
// outlive a sane HTTP request timeout):
//
//	POST   /v1/jobs             submit; 202 + job ID, 429 + Retry-After
//	                            when admission control sheds the job
//	GET    /v1/jobs/{id}        status snapshot; ?wait=5s long-polls
//	                            until the job settles or the wait ends
//	GET    /v1/jobs/{id}/stream SSE stream of state transitions
//	DELETE /v1/jobs/{id}        cancel (queued jobs unlink; running
//	                            jobs have their sampling interrupted)
//
// Jobs queue in a bounded fair JobQueue (see queue.go) and execute on
// the ServeJobs worker pool, sharing runSample with the sync path so
// both report identical statuses.

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// JobSubmitRequest is the POST /v1/jobs body: a SampleRequest plus the
// admission class.
type JobSubmitRequest struct {
	SampleRequest
	Priority string `json:"priority,omitempty"` // interactive | batch (default) | bulk
}

// JobStatusResponse is the wire snapshot of one job.
type JobStatusResponse struct {
	ID       string          `json:"id"`
	State    string          `json:"state"`
	Priority string          `json:"priority"`
	Position int             `json:"position,omitempty"` // queued jobs served before this one
	Result   *SampleResponse `json:"result,omitempty"`   // state == done
	Error    string          `json:"error,omitempty"`    // state == failed
	ErrCode  int             `json:"error_code,omitempty"`
}

// wireStatus converts a queue snapshot to its wire form.
func wireStatus(st JobStatus) JobStatusResponse {
	resp := JobStatusResponse{
		ID:       st.ID,
		State:    st.State.String(),
		Priority: st.Priority.String(),
		Position: st.Position,
	}
	if st.State == JobDone {
		resp.Result = st.Result
	}
	if st.State == JobFailed {
		resp.Error = st.ErrMsg
		resp.ErrCode = st.ErrCode
	}
	return resp
}

// clientID identifies the submitter for queue fairness: the declared
// X-Client-ID header when present, else the remote host, so unrelated
// callers land in separate fairness buckets by default.
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// maxJobWait caps long-poll and stream durations so an abandoned
// connection cannot pin a handler forever.
const maxJobWait = 60 * time.Second

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, MaxRequestBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return
	}
	if len(body) > MaxRequestBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "request exceeds limit")
		return
	}
	var req JobSubmitRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "malformed JSON: "+err.Error())
		return
	}
	prio, err := ParsePriority(req.Priority)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if se := validateRequest(req.SampleRequest); se != nil {
		writeStatusError(w, se)
		return
	}
	// Resolve the model now: submissions with bad models or uncached
	// fingerprints fail at the door (400/412), not minutes later in a
	// worker. The compiled form lands in the CAS, so the worker's own
	// resolve is a cache hit.
	if _, se := s.resolveModel(r.Context(), req.SampleRequest); se != nil {
		writeStatusError(w, se)
		return
	}
	id, coalesced, err := s.Jobs.Submit(req.SampleRequest, clientID(r), prio)
	switch {
	case errors.Is(err, ErrQueueFull):
		s.Metrics.jobShed()
		ra := s.Jobs.RetryAfter()
		w.Header().Set("Retry-After", retryAfterSeconds(ra))
		w.Header().Set("Retry-After-Ms", strconv.FormatInt(ra.Milliseconds(), 10))
		writeError(w, http.StatusTooManyRequests, "job queue full")
		return
	case errors.Is(err, ErrQueueClosed):
		writeError(w, http.StatusServiceUnavailable, "job queue shutting down")
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.Metrics.jobSubmitted(prio.String())
	if coalesced {
		s.Metrics.jobCoalesced()
	}
	s.syncQueueDepth()
	st, _ := s.Jobs.Get(id)
	w.Header().Set("Location", "/v1/jobs/"+id)
	writeJSON(w, http.StatusAccepted, wireStatus(st))
}

// retryAfterSeconds renders a backoff hint in the integer-seconds form
// RFC 9110 allows for Retry-After, rounding UP with a floor of 1. The
// old `d / time.Second` truncation turned every sub-second estimate
// into "0", which clients discard as "no hint" — so precisely when the
// queue drains fastest, shed clients fell back to blind exponential
// backoff. The exact estimate travels alongside in Retry-After-Ms for
// clients that understand it.
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var wait time.Duration
	if ws := r.URL.Query().Get("wait"); ws != "" {
		d, err := time.ParseDuration(ws)
		if err != nil || d < 0 {
			writeError(w, http.StatusBadRequest, "malformed wait duration")
			return
		}
		if d > maxJobWait {
			d = maxJobWait
		}
		wait = d
	}
	st, ok := s.Jobs.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job (expired or never submitted)")
		return
	}
	if wait > 0 && !st.State.Terminal() {
		deadline := time.NewTimer(wait)
		defer deadline.Stop()
		for !st.State.Terminal() {
			snap, changed, ok := s.Jobs.Watch(id)
			if !ok {
				writeError(w, http.StatusNotFound, "job expired while waiting")
				return
			}
			st = snap
			if st.State.Terminal() {
				break
			}
			select {
			case <-changed:
			case <-deadline.C:
				writeJSON(w, http.StatusOK, wireStatus(st))
				return
			case <-r.Context().Done():
				return
			}
		}
	}
	writeJSON(w, http.StatusOK, wireStatus(st))
}

// handleJobStream streams a job's state transitions as server-sent
// events — one "status" event per transition, ending after the
// terminal one. This is the endpoint that needs the instrumentation
// wrapper to forward http.Flusher: without a flush per event the whole
// stream buffers until the job finishes, which is exactly a poll.
func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	st, changed, ok := s.Jobs.Watch(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job (expired or never submitted)")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	deadline := time.NewTimer(maxJobWait)
	defer deadline.Stop()
	for {
		payload, err := json.Marshal(wireStatus(st))
		if err != nil {
			return
		}
		if _, err := w.Write([]byte("event: status\ndata: " + string(payload) + "\n\n")); err != nil {
			return
		}
		flusher.Flush()
		if st.State.Terminal() {
			return
		}
		select {
		case <-changed:
		case <-deadline.C:
			return
		case <-r.Context().Done():
			return
		}
		st, changed, ok = s.Jobs.Watch(st.ID)
		if !ok {
			return
		}
	}
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.Jobs.Cancel(id) {
		st, _ := s.Jobs.Get(id)
		writeJSON(w, http.StatusOK, wireStatus(st))
		return
	}
	if st, ok := s.Jobs.Get(id); ok {
		// Known but already terminal: canceling is a stale request.
		writeJSON(w, http.StatusConflict, wireStatus(st))
		return
	}
	writeError(w, http.StatusNotFound, "unknown job (expired or never submitted)")
}

// ServeJobs runs the worker pool that executes queued jobs, blocking
// until ctx is canceled (or the queue is closed) and every worker has
// drained. JobWorkers sets the pool size, defaulting to MaxConcurrent
// and then to 1, so a job server never executes more concurrent
// sampling than its sync path would admit.
func (s *Server) ServeJobs(ctx context.Context) {
	n := s.JobWorkers
	if n <= 0 {
		n = s.MaxConcurrent
	}
	if n <= 0 {
		n = 1
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.jobWorker(ctx)
		}()
	}
	wg.Wait()
}

func (s *Server) jobWorker(ctx context.Context) {
	for {
		lease, err := s.Jobs.Dequeue(ctx)
		if err != nil {
			return
		}
		s.syncQueueDepth()
		s.Metrics.observeJobWait(lease.Started.Sub(lease.Enqueued))

		// A per-job context lets DELETE /v1/jobs/{id} interrupt the
		// sampling loop of a running job. The outcome metric counts the
		// state the queue settles the job in — a racing Cancel wins over
		// the settle below — and is recorded before any watcher wakes, so
		// a client that sees the job finish also sees it counted.
		jctx, cancel := context.WithCancel(ctx)
		s.Jobs.attach(lease.ID, cancel, func(st JobState) { s.Metrics.jobCompleted(st.String()) })
		start := time.Now()
		resp, se := s.executeJob(jctx, lease.Req)
		s.Metrics.observeJobRun(time.Since(start))
		cancel()
		if se != nil {
			s.Jobs.Fail(lease.ID, se.Code, se.Message)
		} else {
			s.Jobs.Complete(lease.ID, resp)
		}
		s.syncExpiredMetric()
	}
}

// executeJob resolves and samples one leased job.
func (s *Server) executeJob(ctx context.Context, req SampleRequest) (*SampleResponse, *StatusError) {
	compiled, se := s.resolveModel(ctx, req)
	if se != nil {
		return nil, se
	}
	return s.runSample(ctx, req, compiled)
}

// syncQueueDepth publishes the queue depth to its gauge. The read and
// the store happen under one lock, so a submit handler's read taken
// before a worker's dequeue cannot overwrite the worker's newer value.
func (s *Server) syncQueueDepth() {
	s.depthMu.Lock()
	defer s.depthMu.Unlock()
	s.Metrics.setQueueDepth(s.Jobs.Depth())
}

// syncExpiredMetric publishes the queue's lifetime expiry count delta
// to the ResultsExpired counter.
func (s *Server) syncExpiredMetric() {
	if s.Metrics == nil {
		return
	}
	cur := s.Jobs.Stats().Expired
	for {
		seen := s.expiredSeen.Load()
		if cur <= seen {
			return
		}
		if s.expiredSeen.CompareAndSwap(seen, cur) {
			s.Metrics.resultsExpired(int(cur - seen))
			return
		}
	}
}
