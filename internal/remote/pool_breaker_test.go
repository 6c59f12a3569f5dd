package remote

// Circuit-breaker state-machine regressions: the half-open flood (every
// concurrent job admitted the moment a cooldown elapsed) and the
// health-probe laundering of sampling failures (a 200 on /v1/health
// zeroing the consecutive-failure count accrued on /v1/sample).

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolHalfOpenAdmitsSingleTrial is the regression test for the
// half-open flood: once openUntil passed, the old breaker admitted
// every concurrent job to the recovering backend at once. With a proper
// half-open state, exactly one trial job reaches the backend while its
// outcome is pending; the rest are rejected without touching the
// network. Runs under -race in make race: the trial slot is
// claimed from many goroutines at once.
func TestPoolHalfOpenAdmitsSingleTrial(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	var arrivals atomic.Int64
	release := make(chan struct{})
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() {
			http.Error(w, `{"error":"down"}`, http.StatusInternalServerError)
			return
		}
		arrivals.Add(1)
		<-release // hold the trial open so concurrent jobs pile up behind it
		okSampleHandler(w, r)
	}))
	defer backend.Close()

	pool := NewPool(backend.URL)
	pool.FailureThreshold = 1
	pool.Cooldown = time.Hour
	now := time.Now()
	pool.now = func() time.Time { return now }

	if _, err := pool.Sample(twoVarModel()); err == nil {
		t.Fatal("failing backend succeeded")
	}
	if st := pool.Stats(); !st.Backends[0].Open {
		t.Fatalf("circuit not open after threshold failure: %+v", st.Backends[0])
	}

	// Backend recovers; the cooldown elapses -> half-open.
	failing.Store(false)
	now = now.Add(2 * time.Hour)
	if st := pool.Stats(); !st.Backends[0].HalfOpen {
		t.Fatalf("circuit not half-open after cooldown: %+v", st.Backends[0])
	}

	const jobs = 8
	results := make(chan error, jobs)
	for g := 0; g < jobs; g++ {
		go func() {
			_, err := pool.Sample(twoVarModel())
			results <- err
		}()
	}
	// All but the single trial must be rejected while the trial is still
	// in flight. Pre-fix, every job is admitted and blocks in the
	// backend, so the rejections never arrive and the timeout releases
	// the gate for the flood instead.
	var rejected, succeeded int
	timeout := time.After(5 * time.Second)
	for rejected < jobs-1 {
		select {
		case err := <-results:
			if err == nil {
				t.Fatal("job succeeded while the trial was still in flight")
			}
			if !strings.Contains(err.Error(), "unavailable") {
				t.Fatalf("rejected job error = %v, want circuits-open unavailable", err)
			}
			rejected++
		case <-timeout:
			t.Errorf("only %d of %d jobs rejected while trial in flight (half-open circuit is flooding)", rejected, jobs-1)
			close(release)
			for i := rejected; i < jobs; i++ {
				<-results
			}
			t.Fatalf("backend received %d concurrent jobs, want 1 trial", arrivals.Load())
		}
	}
	close(release) // let the trial finish
	if err := <-results; err != nil {
		t.Fatalf("trial job failed against recovered backend: %v", err)
	}
	succeeded++
	if got := arrivals.Load(); got != 1 {
		t.Fatalf("backend received %d jobs during half-open, want exactly 1 trial", got)
	}
	// The trial's success closed the circuit: jobs flow again.
	if _, err := pool.Sample(twoVarModel()); err != nil {
		t.Fatalf("job after closed circuit failed: %v", err)
	}
	if st := pool.Stats(); st.Backends[0].Open || st.Backends[0].HalfOpen || st.Backends[0].ConsecutiveFailures != 0 {
		t.Errorf("circuit not fully closed after trial success: %+v", st.Backends[0])
	}
	_ = succeeded
}

// TestPoolHalfOpenTrialFailureReopens pins the other half of the state
// machine: a failed trial re-opens the circuit for a full cooldown
// rather than leaving the backend admitting jobs.
func TestPoolHalfOpenTrialFailureReopens(t *testing.T) {
	var calls atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"still down"}`, http.StatusInternalServerError)
	}))
	defer backend.Close()

	pool := NewPool(backend.URL)
	pool.FailureThreshold = 1
	pool.Cooldown = time.Hour
	now := time.Now()
	pool.now = func() time.Time { return now }

	if _, err := pool.Sample(twoVarModel()); err == nil {
		t.Fatal("failing backend succeeded")
	}
	now = now.Add(2 * time.Hour) // half-open
	if _, err := pool.Sample(twoVarModel()); err == nil {
		t.Fatal("trial against still-down backend succeeded")
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("backend calls = %d, want 2 (threshold trip + one trial)", got)
	}
	// Re-opened: the next job is shed without a network round trip.
	if _, err := pool.Sample(twoVarModel()); err == nil || !strings.Contains(err.Error(), "unavailable") {
		t.Fatalf("job after failed trial = %v, want unavailable", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("re-opened circuit leaked a job to the backend (calls = %d)", got)
	}
	if st := pool.Stats(); !st.Backends[0].Open {
		t.Errorf("circuit not re-opened after failed trial: %+v", st.Backends[0])
	}
}

// TestPoolHealthProbeDoesNotLaunderSamplingFailures is the regression
// test for the CheckHealth masking bug: a backend that 200s on
// /v1/health but 500s on /v1/sample used to have its consecutive-failure
// count zeroed by every health sweep, so its breaker never tripped under
// periodic health checking. Probe and job outcomes are now separate
// streams.
func TestPoolHealthProbeDoesNotLaunderSamplingFailures(t *testing.T) {
	var sampleCalls atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/health":
			_ = json.NewEncoder(w).Encode(HealthResponse{Status: "ok", Sampler: "liar"})
		default:
			sampleCalls.Add(1)
			http.Error(w, `{"error":"sampling broken"}`, http.StatusInternalServerError)
		}
	}))
	defer backend.Close()

	pool := NewPool(backend.URL)
	pool.FailureThreshold = 3
	pool.Cooldown = time.Hour
	now := time.Now()
	pool.now = func() time.Time { return now }

	// Interleave failing jobs with healthy probes, the steady state of a
	// deployment running periodic health checks.
	for i := 0; i < 3; i++ {
		if _, err := pool.Sample(twoVarModel()); err == nil {
			t.Fatal("broken sampling endpoint succeeded")
		}
		res := pool.CheckHealth(t.Context())
		if res[backend.URL] != nil {
			t.Fatalf("health probe failed: %v", res[backend.URL])
		}
	}
	st := pool.Stats()
	if !st.Backends[0].Open {
		t.Fatalf("circuit never opened: healthy probes laundered %d sampling failures (%+v)",
			st.Backends[0].ConsecutiveFailures, st.Backends[0])
	}
	// And the open circuit sheds the next job without touching the wire.
	before := sampleCalls.Load()
	if _, err := pool.Sample(twoVarModel()); err == nil || !strings.Contains(err.Error(), "unavailable") {
		t.Fatalf("job against tripped backend = %v, want unavailable", err)
	}
	if got := sampleCalls.Load(); got != before {
		t.Errorf("open circuit leaked a job (sample calls %d -> %d)", before, got)
	}
}

// TestPoolProbeFailuresAloneOpenCircuit pins the other direction of the
// split: health-probe failures still gate a backend before it ever
// receives a job.
func TestPoolProbeFailuresAloneOpenCircuit(t *testing.T) {
	var sampleCalls atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/health" {
			http.Error(w, "unready", http.StatusServiceUnavailable)
			return
		}
		sampleCalls.Add(1)
		okSampleHandler(w, r)
	}))
	defer backend.Close()

	pool := NewPool(backend.URL)
	pool.FailureThreshold = 2
	pool.Cooldown = time.Hour
	now := time.Now()
	pool.now = func() time.Time { return now }

	for i := 0; i < 2; i++ {
		if res := pool.CheckHealth(t.Context()); res[backend.URL] == nil {
			t.Fatal("unready backend reported healthy")
		}
	}
	st := pool.Stats()
	if !st.Backends[0].Open || st.Backends[0].ProbeFailures != 2 {
		t.Fatalf("probe failures did not open circuit: %+v", st.Backends[0])
	}
	if _, err := pool.Sample(twoVarModel()); err == nil || !strings.Contains(err.Error(), "unavailable") {
		t.Fatalf("job against probe-tripped backend = %v, want unavailable", err)
	}
	if got := sampleCalls.Load(); got != 0 {
		t.Errorf("probe-tripped backend still received %d jobs", got)
	}
}
