package remote

// jobclient.go is the client side of the async job API. SampleJob is a
// drop-in sibling of SampleContext that rides the submit/poll protocol
// instead of one long POST, and the lower-level SubmitJob/JobStatus/
// WaitJob/CancelJob verbs compose for callers that manage many jobs at
// once (the loadgen harness). Every verb is one call of the client's
// exchange (Client.do), and SampleJob retries a shed submission through
// the same retry loop as the sync path (Client.retry).
//
// Submission is content-addressed when the server cooperates: the
// client first submits by model fingerprint alone; a 412 reply means
// the service has not seen the model, so the client uploads it to
// /v1/cache/{fp} once and resubmits. Every later job over the same
// model — from this client or any other sharing the service — travels
// as a ~100-byte request, and the client renders the QUBO text only for
// the upload or for an inline submission to a service without a model
// cache.

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"
	"time"

	"qsmt/internal/anneal"
	"qsmt/internal/qubo"
)

// ErrJobCanceled reports that a job settled as canceled, so there is no
// result to claim.
var ErrJobCanceled = errors.New("remote: job canceled")

// abandonTimeout bounds the best-effort cancel SampleJob sends for a
// job whose wait ended without a result.
const abandonTimeout = 500 * time.Millisecond

// UploadModel stores the model in the service's content-addressed cache
// and returns its fingerprint, after which jobs over this model can be
// submitted by fingerprint alone.
func (c *Client) UploadModel(ctx context.Context, compiled *qubo.Compiled) (string, error) {
	if err := c.ready(compiled); err != nil {
		return "", err
	}
	model := modelFromCompiled(compiled)
	fp := qubo.FingerprintOf(model).String()
	text, err := wireText(model)
	if err != nil {
		return "", err
	}
	return fp, c.upload(ctx, fp, text)
}

// upload PUTs a model's wire text to the cache under its fingerprint.
func (c *Client) upload(ctx context.Context, fp, text string) error {
	return c.do(ctx, http.MethodPut, "/v1/cache/"+fp, "text/plain; charset=utf-8", []byte(text), nil)
}

// SubmitJob submits one async job and returns its ID. The model is sent
// content-addressed when possible: fingerprint-only first, uploading
// the model and retrying on a 412 miss, and falling back to an inline
// submission against services without a model cache. The wire model is
// built once per submission, and its text is rendered only when a
// fingerprint-only submission was refused.
func (c *Client) SubmitJob(ctx context.Context, compiled *qubo.Compiled, job Job, prio Priority) (string, error) {
	if err := c.ready(compiled); err != nil {
		return "", err
	}
	model := modelFromCompiled(compiled)
	req := c.request(job)
	req.Fingerprint = qubo.FingerprintOf(model).String()
	submit := func() (string, error) {
		body, err := json.Marshal(JobSubmitRequest{SampleRequest: req, Priority: prio.String()})
		if err != nil {
			return "", err
		}
		var st JobStatusResponse
		if err := c.do(ctx, http.MethodPost, "/v1/jobs", "application/json", body, &st); err != nil {
			return "", err
		}
		if st.ID == "" {
			return "", errors.New("remote: job accepted without an ID")
		}
		return st.ID, nil
	}

	id, err := submit()
	if !refusedFingerprint(err) {
		return id, err
	}
	text, terr := wireText(model)
	if terr != nil {
		return "", terr
	}
	var se *StatusError
	if errors.As(err, &se) && se.Code == http.StatusPreconditionFailed && c.upload(ctx, req.Fingerprint, text) == nil {
		// Cache miss: upload once, retry by fingerprint.
		if id, err = submit(); !refusedFingerprint(err) {
			return id, err
		}
	}
	// The service has no CAS (or rejects fingerprints): ship inline.
	req.QUBO, req.Fingerprint = text, ""
	return submit()
}

// refusedFingerprint reports whether err is a service's refusal of a
// fingerprint-only submission: 412 (model not cached, or no cache
// configured), or 404/400 from a service that does not take
// fingerprints.
func refusedFingerprint(err error) bool {
	var se *StatusError
	return errors.As(err, &se) && (se.Code == http.StatusPreconditionFailed ||
		se.Code == http.StatusNotFound || se.Code == http.StatusBadRequest)
}

// JobStatus fetches a job snapshot. A positive wait long-polls: the
// server holds the request until the job settles or wait elapses.
func (c *Client) JobStatus(ctx context.Context, id string, wait time.Duration) (*JobStatusResponse, error) {
	path := "/v1/jobs/" + id
	if wait > 0 {
		path += "?wait=" + wait.String()
	}
	var st JobStatusResponse
	if err := c.do(ctx, http.MethodGet, path, "", nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// CancelJob cancels a queued or running job. Canceling an already
// settled job reports a 409 *StatusError.
func (c *Client) CancelJob(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, "", nil, nil)
}

// WaitJob long-polls until the job settles (done, failed or canceled)
// or ctx expires.
func (c *Client) WaitJob(ctx context.Context, id string) (*JobStatusResponse, error) {
	for {
		st, err := c.JobStatus(ctx, id, 30*time.Second)
		if err != nil {
			return nil, err
		}
		switch st.State {
		case "done", "failed", "canceled":
			return st, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
}

// SampleJob runs one sampling job through the async API: submit, wait,
// claim, decode. Submissions shed by admission control (429) are
// retried with the client's backoff policy, honoring the service's
// Retry-After hint; like the sync path, the whole call is bounded by
// ctx. A job whose wait ends without a result (ctx expired, the
// service unreachable) is canceled on a short detached context, so the
// service stops sampling it and holds no result nobody will claim.
// Satisfies the same contract as SampleJobContext, so a solver can
// point at either path.
func (c *Client) SampleJob(ctx context.Context, compiled *qubo.Compiled, job Job, prio Priority) (*anneal.SampleSet, error) {
	var id string
	if err := c.retry(ctx, func() (err error) {
		id, err = c.SubmitJob(ctx, compiled, job, prio)
		return err
	}); err != nil {
		return nil, err
	}
	st, err := c.WaitJob(ctx, id)
	if err != nil {
		cctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), abandonTimeout)
		// Best effort: the job may have settled meanwhile (409) or the
		// service be gone, and the wait's error is what the caller needs.
		_ = c.CancelJob(cctx, id)
		cancel()
		return nil, err
	}
	switch st.State {
	case "done":
		if st.Result == nil {
			return nil, errors.New("remote: done job carries no result")
		}
		return decodeSamples(st.Result.Samples, compiled)
	case "failed":
		return nil, &StatusError{Code: st.ErrCode, Message: st.Error}
	default:
		return nil, ErrJobCanceled
	}
}

// parseRetryAfter extracts the server's backoff hint from a non-2xx
// reply. Retry-After-Ms (this service's exact millisecond-resolution
// hint) wins when present; otherwise the standard Retry-After header is
// accepted in both RFC 9110 forms — integer seconds and HTTP-date.
// Absent, malformed, or non-positive hints yield 0 (no hint); integer
// hints too large for a Duration saturate at the largest one (the sleep
// is still bounded by the caller's context).
func parseRetryAfter(h http.Header) time.Duration {
	if d, ok := hintDuration(h.Get("Retry-After-Ms"), time.Millisecond); ok && d > 0 {
		return d
	}
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	if d, ok := hintDuration(v, time.Second); ok {
		return d
	}
	if at, err := http.ParseTime(v); err == nil {
		if d := time.Until(at); d > 0 {
			return d
		}
	}
	return 0
}

// hintDuration parses an integer count of unit, saturating instead of
// wrapping: values past the int64 range or whose product with unit
// overflows become the largest Duration, non-positive ones 0. ok is
// false when v is not an integer.
func hintDuration(v string, unit time.Duration) (d time.Duration, ok bool) {
	n, err := strconv.ParseInt(v, 10, 64) // ErrRange comes with n clamped to the int64 range
	if err != nil && !errors.Is(err, strconv.ErrRange) {
		return 0, false
	}
	switch {
	case n <= 0:
		return 0, true
	case n > math.MaxInt64/int64(unit):
		return math.MaxInt64, true
	}
	return time.Duration(n) * unit, true
}

// sleepFor sleeps d or returns early with the context's error.
func sleepFor(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
