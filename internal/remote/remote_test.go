package remote

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"qsmt/internal/anneal"
	"qsmt/internal/core"
	"qsmt/internal/obs"
	"qsmt/internal/qubo"
)

func testService(t *testing.T) (*httptest.Server, *Client) {
	t.Helper()
	srv := httptest.NewServer((&Server{Description: "test-annealer"}).Handler())
	t.Cleanup(srv.Close)
	return srv, &Client{BaseURL: srv.URL, Reads: 16, Sweeps: 400, Seed: 5}
}

func TestHealth(t *testing.T) {
	_, client := testService(t)
	hr, err := client.Health()
	if err != nil {
		t.Fatal(err)
	}
	if hr.Status != "ok" || hr.Sampler != "test-annealer" {
		t.Errorf("health = %+v", hr)
	}
}

func TestRoundTripSolvesDiagonalModel(t *testing.T) {
	_, client := testService(t)
	m := qubo.New(8)
	want := []qubo.Bit{1, 0, 1, 1, 0, 0, 1, 0}
	for i, b := range want {
		if b == 1 {
			m.AddLinear(i, -1)
		} else {
			m.AddLinear(i, 1)
		}
	}
	ss, err := client.Sample(m.Compile())
	if err != nil {
		t.Fatal(err)
	}
	best := ss.Best()
	for i := range want {
		if best.X[i] != want[i] {
			t.Fatalf("best = %v, want %v", best.X, want)
		}
	}
}

func TestRoundTripStringConstraint(t *testing.T) {
	// The full pipeline shape: string constraint → remote annealer →
	// decode → check.
	_, client := testService(t)
	c := &core.Equality{Target: "net"}
	m, err := c.BuildModel()
	if err != nil {
		t.Fatal(err)
	}
	ss, err := client.Sample(m.Compile())
	if err != nil {
		t.Fatal(err)
	}
	w, err := c.Decode(ss.Best().X)
	if err != nil {
		t.Fatal(err)
	}
	if w.Str != "net" {
		t.Errorf("remote solve = %q", w.Str)
	}
}

func TestEnergiesReEvaluatedLocally(t *testing.T) {
	// A lying server: returns a sample with a bogus energy label. The
	// client must relabel from the local model.
	lying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(SampleResponse{Samples: []WireSample{
			{X: "11", Energy: -999, Occurrences: 1},
		}})
	}))
	defer lying.Close()
	m := qubo.New(2)
	m.AddLinear(0, 1)
	m.AddLinear(1, 1)
	client := &Client{BaseURL: lying.URL}
	ss, err := client.Sample(m.Compile())
	if err != nil {
		t.Fatal(err)
	}
	if ss.Best().Energy != 2 {
		t.Errorf("energy = %g, want locally computed 2", ss.Best().Energy)
	}
}

func TestClientErrors(t *testing.T) {
	_, client := testService(t)
	if _, err := client.Sample(nil); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := (&Client{}).Sample(qubo.New(1).Compile()); err == nil {
		t.Error("missing BaseURL accepted")
	}
	down := &Client{BaseURL: "http://127.0.0.1:1"} // nothing listens
	if _, err := down.Sample(qubo.New(1).Compile()); err == nil {
		t.Error("unreachable service succeeded")
	}
}

func TestClientRejectsMalformedSamples(t *testing.T) {
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(SampleResponse{Samples: []WireSample{
			{X: "1x", Energy: 0, Occurrences: 1},
		}})
	}))
	defer bad.Close()
	client := &Client{BaseURL: bad.URL}
	if _, err := client.Sample(qubo.New(2).Compile()); err == nil {
		t.Error("invalid bit string accepted")
	}

	wrongLen := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(SampleResponse{Samples: []WireSample{
			{X: "111", Energy: 0, Occurrences: 1},
		}})
	}))
	defer wrongLen.Close()
	client = &Client{BaseURL: wrongLen.URL}
	if _, err := client.Sample(qubo.New(2).Compile()); err == nil {
		t.Error("wrong-length sample accepted")
	}

	empty := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(SampleResponse{})
	}))
	defer empty.Close()
	client = &Client{BaseURL: empty.URL}
	if _, err := client.Sample(qubo.New(2).Compile()); err == nil {
		t.Error("empty sample set accepted")
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	srv, _ := testService(t)
	post := func(body string) *http.Response {
		resp, err := http.Post(srv.URL+"/v1/sample", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	if resp := post("{not json"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON status = %d", resp.StatusCode)
	}
	if resp := post(`{"qubo": "garbage"}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed QUBO status = %d", resp.StatusCode)
	}
	// Method enforcement.
	resp, err := http.Get(srv.URL + "/v1/sample")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET sample status = %d", resp.StatusCode)
	}
	respHead, err := http.Post(srv.URL+"/v1/health", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	if respHead.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST health status = %d", respHead.StatusCode)
	}
}

func TestServerCustomSamplerFactory(t *testing.T) {
	// A factory that returns the exact solver regardless of knobs.
	srv := httptest.NewServer((&Server{
		NewSampler: func(req SampleRequest) interface {
			Sample(*qubo.Compiled) (*anneal.SampleSet, error)
		} {
			return &anneal.ExactSolver{}
		},
		Description: "exact",
	}).Handler())
	defer srv.Close()
	client := &Client{BaseURL: srv.URL}
	m := qubo.New(3)
	m.AddLinear(1, -2)
	ss, err := client.Sample(m.Compile())
	if err != nil {
		t.Fatal(err)
	}
	if ss.Best().Energy != -2 || ss.Best().X[1] != 1 {
		t.Errorf("best = %+v", ss.Best())
	}
}

func TestWireBitsHelpers(t *testing.T) {
	x := []qubo.Bit{1, 0, 1}
	s := bitsToString(x)
	if s != "101" {
		t.Errorf("bitsToString = %q", s)
	}
	back, err := stringToBits(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if back[i] != x[i] {
			t.Fatalf("round trip = %v", back)
		}
	}
	if _, err := stringToBits("012"); err == nil {
		t.Error("invalid character accepted")
	}
}

func TestRequestSizeLimit(t *testing.T) {
	srv, _ := testService(t)
	big := bytes.Repeat([]byte("x"), MaxRequestBytes+10)
	resp, err := http.Post(srv.URL+"/v1/sample", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized request status = %d", resp.StatusCode)
	}
}

// An old client may still send the "portfolio" bit that once made the
// server race its solver arms. The field is unknown to SampleRequest
// now, so json.Unmarshal drops it: no race runs server-side, and both
// the sync sample endpoint and the async job API serve the request with
// the plain sampler.
func TestPortfolioRequestRacesServerSide(t *testing.T) {
	reg := obs.NewRegistry()
	srv := &Server{Jobs: NewJobQueue(4, time.Minute), Metrics: NewServerMetrics(reg)}
	hts := startJobServer(t, srv)
	const body = `{"qubo":"qubo 2\nl 0 -1\nl 1 -1\n","reads":4,"sweeps":50,"portfolio":true`

	resp, err := http.Post(hts.URL+"/v1/sample", "application/json", strings.NewReader(body+"}"))
	if err != nil {
		t.Fatal(err)
	}
	var sr SampleResponse
	err = json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || len(sr.Samples) == 0 {
		t.Fatalf("sample: status %d, %d samples, decode error %v", resp.StatusCode, len(sr.Samples), err)
	}

	resp, err = http.Post(hts.URL+"/v1/jobs", "application/json", strings.NewReader(body+`,"priority":"interactive"}`))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatusResponse
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job submit: status %d, decode error %v", resp.StatusCode, err)
	}
	resp, err = http.Get(hts.URL + "/v1/jobs/" + st.ID + "?wait=10s")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || st.State != "done" || st.Result == nil || len(st.Result.Samples) == 0 {
		t.Fatalf("job: status %d, %+v, decode error %v", resp.StatusCode, st, err)
	}
	if best := st.Result.Samples[0]; best.X != "11" || best.Energy != -2 {
		t.Errorf("job best sample %+v, want the ground state 11 at -2", best)
	}
	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "portfolio") {
		t.Errorf("metrics exposition still has a portfolio series:\n%s", sb.String())
	}
}

// A server with a custom NewSampler (proxy mode) serves a request that
// carries the legacy portfolio bit through its factory exactly once,
// with the request's own knobs.
func TestPortfolioRequestIgnoredWithCustomSampler(t *testing.T) {
	calls := 0
	srv := httptest.NewServer((&Server{
		Description: "proxy",
		NewSampler: func(req SampleRequest) interface {
			Sample(*qubo.Compiled) (*anneal.SampleSet, error)
		} {
			calls++
			if req.Reads != 4 || req.Sweeps != 50 {
				t.Errorf("custom sampler saw reads=%d sweeps=%d, want 4 and 50", req.Reads, req.Sweeps)
			}
			return &anneal.SimulatedAnnealer{Reads: 4, Sweeps: 50, Seed: 1}
		},
	}).Handler())
	t.Cleanup(srv.Close)

	const body = `{"qubo":"qubo 4\nl 0 -1\nl 1 -1\nl 2 -1\nl 3 -1\n","reads":4,"sweeps":50,"seed":1,"portfolio":true}`
	resp, err := http.Post(srv.URL+"/v1/sample", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sr SampleResponse
	err = json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || len(sr.Samples) == 0 {
		t.Fatalf("sample: status %d, %d samples, decode error %v", resp.StatusCode, len(sr.Samples), err)
	}
	if calls != 1 {
		t.Fatalf("custom sampler calls = %d, want 1", calls)
	}
}
