package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"qsmt/internal/qubo"
)

// FuzzParseRetryAfter checks the backoff-hint parser on arbitrary header
// values: the hint is never negative, and for integer hints a larger
// value never gives a shorter backoff, in either header.
func FuzzParseRetryAfter(f *testing.F) {
	f.Add("120", uint64(1), uint64(2))
	f.Add("Wed, 21 Oct 2015 07:28:00 GMT", uint64(9223372036), uint64(9223372037))
	f.Add("-5", uint64(18446744073), uint64(18446744074))
	f.Add("soon", uint64(0), uint64(18446744073709551615))
	f.Fuzz(func(t *testing.T, raw string, a, b uint64) {
		for _, name := range []string{"Retry-After", "Retry-After-Ms"} {
			hint := func(v string) time.Duration {
				h := http.Header{}
				h.Set(name, v)
				return parseRetryAfter(h)
			}
			if d := hint(raw); d < 0 {
				t.Fatalf("%s: %q = %v, negative", name, raw, d)
			}
			lo, hi := min(a, b), max(a, b)
			dlo, dhi := hint(strconv.FormatUint(lo, 10)), hint(strconv.FormatUint(hi, 10))
			if dhi < dlo {
				t.Fatalf("%s: %d gives %v, shorter than %v for %d", name, hi, dhi, dlo, lo)
			}
		}
	})
}

// FuzzSampleRequest checks the request gate every submission path
// shares: decoding arbitrary JSON and validating it never panics, and a
// request that passes names a model and carries no negative reads or
// sweeps.
func FuzzSampleRequest(f *testing.F) {
	f.Add([]byte(`{"qubo":"qubo 2\nl 0 -1\nl 1 -1\n","reads":8,"sweeps":200}`))
	f.Add([]byte(`{"fingerprint":"qf1-2-2-1-0000000000000000-0000000000000000","reads":4}`))
	f.Add([]byte(`{"qubo":"qubo 1\n","reads":-1}`))
	f.Add([]byte(`{"sweeps":-9223372036854775808}`))
	f.Add([]byte(`{"reads":1e3,"portfolio":true}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SampleRequest
		if json.Unmarshal(body, &req) != nil {
			return
		}
		if validateRequest(req) != nil {
			return
		}
		if req.Reads < 0 || req.Sweeps < 0 {
			t.Fatalf("accepted negative knobs: reads %d, sweeps %d", req.Reads, req.Sweeps)
		}
		if req.QUBO == "" && req.Fingerprint == "" {
			t.Fatalf("accepted a request that names no model: %s", body)
		}
	})
}

// FuzzCachePut checks the model-upload gate, PUT /v1/cache/{fp}, on
// arbitrary claimed fingerprints and bodies: a 201 means a GET on the
// claimed fingerprint returns the body, and any other status stores
// nothing.
func FuzzCachePut(f *testing.F) {
	const text = "qubo 2\nl 0 -1\nl 1 -1\n"
	model, err := qubo.Read(strings.NewReader(text))
	if err != nil {
		f.Fatal(err)
	}
	fp := qubo.FingerprintOf(model).String()
	f.Add(fp, text)
	wrong := fp[:len(fp)-1] + "0"
	if strings.HasSuffix(fp, "0") {
		wrong = fp[:len(fp)-1] + "1"
	}
	f.Add(wrong, text)
	f.Add(fp, "qubo 2\nl 0 -1\n")
	f.Add(fp, "qubo 99999999999\n")
	f.Add("qf1-not-a-fingerprint", text)
	f.Add("", "")
	f.Fuzz(func(t *testing.T, claimed, body string) {
		srv := &Server{CAS: NewModelCAS(4)}
		h := srv.Handler()
		path := "/v1/cache/" + url.PathEscape(claimed)
		put := httptest.NewRecorder()
		h.ServeHTTP(put, httptest.NewRequest(http.MethodPut, path, strings.NewReader(body)))
		if put.Code != http.StatusCreated {
			if n := srv.CAS.Len(); n != 0 {
				t.Fatalf("PUT %q = %d, yet the cache stored %d models", claimed, put.Code, n)
			}
			return
		}
		get := httptest.NewRecorder()
		h.ServeHTTP(get, httptest.NewRequest(http.MethodGet, path, nil))
		if get.Code != http.StatusOK || get.Body.String() != body {
			t.Fatalf("PUT %q = 201, but GET = %d %q, want 200 with the body", claimed, get.Code, get.Body.String())
		}
	})
}

// replyTransport answers every request with one canned reply, so a fuzz
// target drives the client's exchange without a listener.
type replyTransport struct {
	code   int
	header http.Header
	body   []byte
}

func (rt *replyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: rt.code,
		Header:     rt.header,
		Body:       io.NopCloser(bytes.NewReader(rt.body)),
		Request:    req,
	}, nil
}

// FuzzClientReply sends an arbitrary status, Retry-After and
// Retry-After-Ms headers and body through the client's one exchange
// (Client.do): it never panics, a reply past the response cap is
// ErrResponseTooLarge, and any other non-2xx reply is a *StatusError
// with the reply's code and parseRetryAfter's hint.
func FuzzClientReply(f *testing.F) {
	f.Add(200, "", "", []byte(`{"status":"ok","sampler":"sa"}`))
	f.Add(429, "1", "250", []byte(`{"error":"saturated"}`))
	f.Add(503, "Wed, 21 Oct 2015 07:28:00 GMT", "", []byte(`not json`))
	f.Add(412, "", "-3", []byte(`{"error":"model not cached"}`))
	f.Add(204, "", "", []byte{})
	f.Add(500, "99999999999999999999", "x", bytes.Repeat([]byte("z"), 100))
	const limit = 64
	f.Fuzz(func(t *testing.T, code int, retryAfter, retryAfterMs string, body []byte) {
		if code < 100 || code > 999 {
			return // not an HTTP status line a transport can deliver
		}
		header := http.Header{}
		header.Set("Retry-After", retryAfter)
		header.Set("Retry-After-Ms", retryAfterMs)
		rt := &replyTransport{code: code, header: header, body: body}
		c := &Client{BaseURL: "http://service.invalid", HTTPClient: &http.Client{Transport: rt}, MaxResponseBytes: limit}
		// A date hint counts down between calls: bracket the client's.
		latest := parseRetryAfter(header)
		var hr HealthResponse
		err := c.do(context.Background(), http.MethodGet, "/v1/health", "", nil, &hr)
		earliest := parseRetryAfter(header)
		if len(body) > limit {
			if !errors.Is(err, ErrResponseTooLarge) {
				t.Fatalf("%d-byte reply: err = %v, want ErrResponseTooLarge", len(body), err)
			}
			return
		}
		if code >= 200 && code <= 299 {
			var se *StatusError
			if errors.As(err, &se) {
				t.Fatalf("%d reply: err = %v, want no *StatusError", code, err)
			}
			return
		}
		var se *StatusError
		if !errors.As(err, &se) {
			t.Fatalf("%d reply: err = %v, want *StatusError", code, err)
		}
		if se.Code != code || se.RetryAfter > latest || se.RetryAfter < earliest {
			t.Fatalf("%d reply: %+v, want code %d and hint in [%v, %v]", code, se, code, earliest, latest)
		}
	})
}
