package remote

// jobclient.go is the client side of the async job API. SampleJob is a
// drop-in sibling of SampleContext that rides the submit/poll protocol
// instead of one long POST, and the lower-level SubmitJob/JobStatus/
// WaitJob/CancelJob verbs compose for callers that manage many jobs at
// once (the loadgen harness, a solver fanning out portfolio restarts).
//
// Submission is content-addressed when the server cooperates: the
// client first submits by model fingerprint alone; a 412 reply means
// the service has not seen the model, so the client uploads it to
// /v1/cache/{fp} once and resubmits. Every later job over the same
// model — from this client or any other sharing the service — travels
// as a ~100-byte request instead of re-shipping the QUBO text.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"qsmt/internal/anneal"
	"qsmt/internal/qubo"
)

// ErrJobCanceled reports that a job settled as canceled, so there is no
// result to claim.
var ErrJobCanceled = errors.New("remote: job canceled")

// doJSON performs one request and decodes a JSON reply into out (when
// non-nil). Non-2xx replies come back as *StatusError with any
// Retry-After hint attached.
func (c *Client) doJSON(ctx context.Context, method, path string, body []byte, out interface{}) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method,
		strings.TrimRight(c.BaseURL, "/")+path, rd)
	if err != nil {
		return fmt.Errorf("remote: building request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.ClientID != "" {
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
		se := &StatusError{Code: resp.StatusCode}
		var er errorResponse
		if json.Unmarshal(raw, &er) == nil {
			se.Message = er.Error
		}
		se.RetryAfter = parseRetryAfter(resp.Header)
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

// UploadModel stores the model in the service's content-addressed cache
// and returns its fingerprint, after which jobs over this model can be
// submitted by fingerprint alone.
func (c *Client) UploadModel(ctx context.Context, compiled *qubo.Compiled) (string, error) {
	if compiled == nil {
		return "", errors.New("remote: nil model")
	}
	model := modelFromCompiled(compiled)
	fp := qubo.FingerprintOf(model).String()
	var text bytes.Buffer
	if _, err := model.WriteTo(&text); err != nil {
		return "", fmt.Errorf("remote: serializing QUBO: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPut,
		strings.TrimRight(c.BaseURL, "/")+"/v1/cache/"+fp, bytes.NewReader(text.Bytes()))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "text/plain; charset=utf-8")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return "", fmt.Errorf("remote: uploading model: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		se := &StatusError{Code: resp.StatusCode}
		var er errorResponse
		if json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&er) == nil {
			se.Message = er.Error
		}
		return "", se
	}
	return fp, nil
}

// SubmitJob submits one async job and returns its ID. The model is sent
// content-addressed when possible: fingerprint-only first, uploading
// the model and retrying on a 412 miss, and falling back to an inline
// submission against services without a model cache.
func (c *Client) SubmitJob(ctx context.Context, compiled *qubo.Compiled, job Job, prio Priority) (string, error) {
	if compiled == nil {
		return "", errors.New("remote: nil model")
	}
	if c.BaseURL == "" {
		return "", errors.New("remote: client has no BaseURL")
	}
	req, err := c.sampleRequest(compiled, job)
	if err != nil {
		return "", err
	}
	fingerprint := qubo.FingerprintOf(modelFromCompiled(compiled)).String()

	submit := func(r SampleRequest) (string, error) {
		body, err := json.Marshal(JobSubmitRequest{SampleRequest: r, Priority: prio.String()})
		if err != nil {
			return "", err
		}
		var st JobStatusResponse
		if err := c.doJSON(ctx, http.MethodPost, "/v1/jobs", body, &st); err != nil {
			return "", err
		}
		if st.ID == "" {
			return "", errors.New("remote: job accepted without an ID")
		}
		return st.ID, nil
	}

	// Content-addressed attempt: fingerprint only, no model text.
	light := req
	light.QUBO, light.Fingerprint = "", fingerprint
	id, err := submit(light)
	if err == nil {
		return id, nil
	}
	var se *StatusError
	if errors.As(err, &se) && se.Code == http.StatusPreconditionFailed {
		// Cache miss: upload once, retry by fingerprint.
		if _, upErr := c.UploadModel(ctx, compiled); upErr == nil {
			if id, err = submit(light); err == nil {
				return id, nil
			}
		}
	}
	if errors.As(err, &se) && (se.Code == http.StatusPreconditionFailed ||
		se.Code == http.StatusNotFound || se.Code == http.StatusBadRequest) {
		// The service has no CAS (or rejects fingerprints): ship inline.
		return submit(req)
	}
	return "", err
}

// JobStatus fetches a job snapshot. A positive wait long-polls: the
// server holds the request until the job settles or wait elapses.
func (c *Client) JobStatus(ctx context.Context, id string, wait time.Duration) (*JobStatusResponse, error) {
	path := "/v1/jobs/" + id
	if wait > 0 {
		path += "?wait=" + wait.String()
	}
	var st JobStatusResponse
	if err := c.doJSON(ctx, http.MethodGet, path, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// CancelJob cancels a queued or running job. Canceling an already
// settled job reports a 409 *StatusError.
func (c *Client) CancelJob(ctx context.Context, id string) error {
	return c.doJSON(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, nil)
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
// ctx. Satisfies the same contract as SampleJobContext, so a solver can
// point at either path.
func (c *Client) SampleJob(ctx context.Context, compiled *qubo.Compiled, job Job, prio Priority) (*anneal.SampleSet, error) {
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
	var id string
	var lastErr error
	for attempt := 0; ; attempt++ {
		var err error
		id, err = c.SubmitJob(ctx, compiled, job, prio)
		if err == nil {
			break
		}
		lastErr = err
		if attempt >= maxRetries || !transientErr(err) || ctx.Err() != nil {
			return nil, lastErr
		}
		c.retries.Add(1)
		var se *StatusError
		if errors.As(err, &se) && se.RetryAfter > 0 {
			// The service told us when the queue should have drained;
			// its estimate beats blind exponential backoff in both
			// directions — a 250ms hint resubmits long before the first
			// backoff step would, and a 30s hint stops us burning
			// attempts into a queue that cannot have drained yet.
			if err := sleepFor(ctx, se.RetryAfter); err != nil {
				return nil, fmt.Errorf("%w (last attempt: %v)", err, lastErr)
			}
			continue
		}
		if err := sleepBackoff(ctx, backoff, maxBackoff, attempt); err != nil {
			return nil, fmt.Errorf("%w (last attempt: %v)", err, lastErr)
		}
	}
	st, err := c.WaitJob(ctx, id)
	if err != nil {
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
