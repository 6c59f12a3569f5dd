package remote

// Regression tests for the Retry-After pipeline. The shed hint used to
// be destroyed twice on its way to the backoff loop: the server
// truncated the queue's estimate to integer seconds (so any sub-second
// estimate rendered as "0"), and the client discarded hints that failed
// `secs > 0` or were below its own backoff. The result: precisely when
// the queue drained fastest, shed clients fell back to blind
// exponential backoff. These tests pin the repaired path end to end.

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// driveCompletions pushes n jobs through submit→dequeue→complete with
// the given spacing on the queue's frozen clock, establishing
// throughput history for RetryAfter.
func driveCompletions(t *testing.T, q *JobQueue, now *time.Time, n int, spacing time.Duration) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < n; i++ {
		id, _, err := q.Submit(SampleRequest{}, "driver", PriorityBatch)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		lease, err := q.Dequeue(ctx)
		if err != nil {
			t.Fatalf("dequeue %d: %v", i, err)
		}
		if lease.ID != id {
			t.Fatalf("lease %q, want %q", lease.ID, id)
		}
		*now = now.Add(spacing)
		q.Complete(id, &SampleResponse{})
	}
}

func TestQueueRetryAfterKeepsSubSecondEstimate(t *testing.T) {
	q := NewJobQueue(16, time.Minute)
	now := time.Unix(1_000_000, 0)
	q.now = func() time.Time { return now }
	driveCompletions(t, q, &now, 8, 20*time.Millisecond)
	// Two jobs waiting at 20ms per completion → the queue should drain
	// in ~40ms. The old floor rounded this up to a full second. Distinct
	// seeds keep the two from coalescing into one execution.
	for i := 0; i < 2; i++ {
		if _, _, err := q.Submit(SampleRequest{Seed: int64(i + 1)}, "waiting", PriorityBatch); err != nil {
			t.Fatalf("backlog submit %d: %v", i, err)
		}
	}
	if got := q.RetryAfter(); got != 40*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want exactly 40ms (2 queued × 20ms spacing)", got)
	}
}

func TestRetryAfterSecondsRoundsUp(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{40 * time.Millisecond, "1"}, // never "0": clients read that as no hint
		{time.Second, "1"},
		{1100 * time.Millisecond, "2"}, // round up, not down: sleeping short earns another 429
		{time.Minute, "60"},
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.d); got != c.want {
			t.Errorf("retryAfterSeconds(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestParseRetryAfterForms(t *testing.T) {
	mk := func(kv ...string) http.Header {
		h := http.Header{}
		for i := 0; i < len(kv); i += 2 {
			h.Set(kv[i], kv[i+1])
		}
		return h
	}
	if got := parseRetryAfter(mk("Retry-After-Ms", "250", "Retry-After", "1")); got != 250*time.Millisecond {
		t.Errorf("ms header = %v, want 250ms (exact hint wins over rounded seconds)", got)
	}
	if got := parseRetryAfter(mk("Retry-After", "2")); got != 2*time.Second {
		t.Errorf("integer seconds = %v, want 2s", got)
	}
	if got := parseRetryAfter(mk("Retry-After", "0")); got != 0 {
		t.Errorf("zero seconds = %v, want 0 (no hint)", got)
	}
	date := time.Now().Add(3 * time.Second).UTC().Format(http.TimeFormat)
	if got := parseRetryAfter(mk("Retry-After", date)); got <= 0 || got > 3*time.Second {
		t.Errorf("HTTP-date = %v, want in (0, 3s]", got)
	}
	past := time.Now().Add(-time.Minute).UTC().Format(http.TimeFormat)
	if got := parseRetryAfter(mk("Retry-After", past)); got != 0 {
		t.Errorf("past HTTP-date = %v, want 0", got)
	}
	if got := parseRetryAfter(mk("Retry-After", "soon")); got != 0 {
		t.Errorf("garbage = %v, want 0", got)
	}
}

// Integer hints too large for a Duration saturate instead of wrapping
// to a short or negative backoff.
func TestParseRetryAfterSaturates(t *testing.T) {
	const forever = time.Duration(math.MaxInt64)
	for _, c := range []struct {
		header, value string
		want          time.Duration
	}{
		{"Retry-After", "18446744074", forever},       // ~584 years; used to wrap to 290ms
		{"Retry-After-Ms", "18446744073710", forever}, // used to wrap to 448µs
		{"Retry-After", "9300000000", forever},        // used to wrap negative, dropping the hint
		{"Retry-After", "99999999999999999999", forever},
		{"Retry-After-Ms", "99999999999999999999", forever},
		{"Retry-After", "-99999999999999999999", 0},
		{"Retry-After", "9223372036", 9223372036 * time.Second}, // the largest whole-second hint
	} {
		h := http.Header{}
		h.Set(c.header, c.value)
		if got := parseRetryAfter(h); got != c.want {
			t.Errorf("%s: %s = %v, want %v", c.header, c.value, got, c.want)
		}
	}
}

// TestShedHintSubSecondEndToEnd drives the full loop: a queue with fast
// observed throughput sheds a submission, and the client's StatusError
// carries the sub-second estimate rather than a truncated or floored
// one.
func TestShedHintSubSecondEndToEnd(t *testing.T) {
	q := NewJobQueue(2, time.Minute)
	now := time.Unix(1_000_000, 0)
	q.now = func() time.Time { return now }
	driveCompletions(t, q, &now, 8, 20*time.Millisecond)
	for i := 0; i < 2; i++ {
		if _, _, err := q.Submit(SampleRequest{Seed: int64(i + 1)}, "filler", PriorityBatch); err != nil {
			t.Fatalf("backlog submit %d: %v", i, err)
		}
	}
	hts := httptest.NewServer((&Server{Jobs: q}).Handler())
	defer hts.Close()
	client := &Client{BaseURL: hts.URL, MaxRetries: -1}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err := client.SampleJob(ctx, twoVarModel(), Job{}, PriorityBatch)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Fatalf("submit into full queue = %v, want 429", err)
	}
	if se.RetryAfter != 40*time.Millisecond {
		t.Fatalf("hint = %v, want the queue's exact 40ms estimate", se.RetryAfter)
	}
}

// TestSampleJobHonorsMillisecondHint pins the backoff behavior: a
// client whose own backoff is near zero must still wait out a 200ms
// service hint before resubmitting, instead of discarding it for being
// under a second.
func TestSampleJobHonorsMillisecondHint(t *testing.T) {
	var calls int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		w.Header().Set("Retry-After", "1")
		w.Header().Set("Retry-After-Ms", "200")
		http.Error(w, `{"error":"job queue full"}`, http.StatusTooManyRequests)
	}))
	defer srv.Close()
	client := &Client{BaseURL: srv.URL, MaxRetries: 1, RetryBackoff: time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	_, err := client.SampleJob(ctx, twoVarModel(), Job{}, PriorityBatch)
	elapsed := time.Since(start)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Fatalf("err = %v, want 429 after retry budget", err)
	}
	if elapsed < 150*time.Millisecond {
		t.Fatalf("retry waited only %v, want ≥ the 200ms hint (minus scheduling slack)", elapsed)
	}
	if calls < 2 {
		t.Fatalf("backend saw %d submissions, want ≥ 2 (initial + post-hint retry)", calls)
	}
}
