package remote

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"qsmt/internal/qubo"
)

// transcriptModelText is the wire text of the model every transcript
// case submits: offset, linear and quadratic records in qubo.WriteTo's
// order.
const transcriptModelText = "qubo 3\noffset 0.25\nl 0 -1\nl 2 0.5\nq 0 1 2\nq 1 2 -1.5\n"

// wireRequest is one request as the service sees it.
type wireRequest struct {
	Method, Target, ContentType, ClientID, Body string
}

// wireReply is one scripted service reply.
type wireReply struct {
	Code   int
	Header map[string]string
	Body   string
}

// recorder is a scripted service: it answers requests from a queue of
// replies and records each request's method, target, Content-Type,
// X-Client-ID and body.
type recorder struct {
	mu      sync.Mutex
	replies []wireReply
	got     []wireRequest
}

func (r *recorder) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	body, _ := io.ReadAll(req.Body)
	r.mu.Lock()
	r.got = append(r.got, wireRequest{
		Method:      req.Method,
		Target:      req.URL.RequestURI(),
		ContentType: req.Header.Get("Content-Type"),
		ClientID:    req.Header.Get("X-Client-ID"),
		Body:        string(body),
	})
	reply := wireReply{Code: http.StatusInternalServerError, Body: `{"error":"transcript: no reply scripted"}`}
	if len(r.replies) > 0 {
		reply, r.replies = r.replies[0], r.replies[1:]
	}
	r.mu.Unlock()
	for k, v := range reply.Header {
		w.Header().Set(k, v)
	}
	w.WriteHeader(reply.Code)
	_, _ = io.WriteString(w, reply.Body)
}

// TestClientRequestTranscript pins the exact requests every client verb
// sends — method, target, Content-Type, X-Client-ID and body — including
// the retries of the sync path and the three branches of content-
// addressed job submission.
func TestClientRequestTranscript(t *testing.T) {
	model, err := qubo.Read(strings.NewReader(transcriptModelText))
	if err != nil {
		t.Fatal(err)
	}
	compiled := model.Compile()
	fp := qubo.FingerprintOf(model).String()
	const (
		jsonCT = "application/json"
		textCT = "text/plain; charset=utf-8"
		id     = "tx"
	)
	text := strings.ReplaceAll(transcriptModelText, "\n", `\n`)
	inlineSample := `{"qubo":"` + text + `","reads":8,"sweeps":50,"seed":7}`
	light := `{"fingerprint":"` + fp + `","reads":4,"sweeps":50,"seed":7,"priority":"interactive"}`
	inlineJob := `{"qubo":"` + text + `","reads":4,"sweeps":50,"seed":7,"priority":"interactive"}`
	accepted := wireReply{Code: http.StatusAccepted, Body: `{"id":"j1","state":"queued","priority":"interactive"}`}
	samples := `{"samples":[{"x":"101","energy":0,"occurrences":1}]}`

	cases := []struct {
		name    string
		replies []wireReply
		call    func(ctx context.Context, c *Client) error
		want    []wireRequest
	}{
		{
			name: "SampleJobContext retries 503 and 429",
			replies: []wireReply{
				{Code: http.StatusServiceUnavailable, Body: `{"error":"busy"}`},
				{Code: http.StatusTooManyRequests, Header: map[string]string{"Retry-After-Ms": "1"}, Body: `{"error":"saturated"}`},
				{Code: http.StatusOK, Body: samples},
			},
			call: func(ctx context.Context, c *Client) error {
				ss, err := c.SampleJobContext(ctx, compiled, Job{Reads: 8})
				if err == nil && (ss.Len() != 1 || c.Retries() != 2) {
					t.Errorf("samples %d, retries %d; want 1 and 2", ss.Len(), c.Retries())
				}
				return err
			},
			want: []wireRequest{
				{"POST", "/v1/sample", jsonCT, "", inlineSample},
				{"POST", "/v1/sample", jsonCT, "", inlineSample},
				{"POST", "/v1/sample", jsonCT, "", inlineSample},
			},
		},
		{
			name:    "SubmitJob fingerprint hit",
			replies: []wireReply{accepted},
			call:    submitJ1(compiled),
			want:    []wireRequest{{"POST", "/v1/jobs", jsonCT, id, light}},
		},
		{
			name: "SubmitJob 412 uploads and resubmits",
			replies: []wireReply{
				{Code: http.StatusPreconditionFailed, Body: `{"error":"model not cached"}`},
				{Code: http.StatusCreated, Body: `{"fingerprint":"` + fp + `"}`},
				accepted,
			},
			call: submitJ1(compiled),
			want: []wireRequest{
				{"POST", "/v1/jobs", jsonCT, id, light},
				{"PUT", "/v1/cache/" + fp, textCT, "", transcriptModelText},
				{"POST", "/v1/jobs", jsonCT, id, light},
			},
		},
		{
			name: "SubmitJob 404 falls back inline",
			replies: []wireReply{
				{Code: http.StatusNotFound, Body: `{"error":"not found"}`},
				accepted,
			},
			call: submitJ1(compiled),
			want: []wireRequest{
				{"POST", "/v1/jobs", jsonCT, id, light},
				{"POST", "/v1/jobs", jsonCT, id, inlineJob},
			},
		},
		{
			name:    "UploadModel",
			replies: []wireReply{{Code: http.StatusCreated, Body: `{"fingerprint":"` + fp + `"}`}},
			call: func(ctx context.Context, c *Client) error {
				got, err := c.UploadModel(ctx, compiled)
				if err == nil && got != fp {
					t.Errorf("UploadModel = %q, want %q", got, fp)
				}
				return err
			},
			want: []wireRequest{{"PUT", "/v1/cache/" + fp, textCT, "", transcriptModelText}},
		},
		{
			name:    "JobStatus with a wait",
			replies: []wireReply{{Code: http.StatusOK, Body: `{"id":"j1","state":"running","priority":"interactive"}`}},
			call: func(ctx context.Context, c *Client) error {
				st, err := c.JobStatus(ctx, "j1", 1500*time.Millisecond)
				if err == nil && st.State != "running" {
					t.Errorf("state = %q, want running", st.State)
				}
				return err
			},
			want: []wireRequest{{"GET", "/v1/jobs/j1?wait=1.5s", "", id, ""}},
		},
		{
			name:    "CancelJob",
			replies: []wireReply{{Code: http.StatusOK, Body: `{"id":"j1","state":"canceled","priority":"interactive"}`}},
			call:    func(ctx context.Context, c *Client) error { return c.CancelJob(ctx, "j1") },
			want:    []wireRequest{{"DELETE", "/v1/jobs/j1", "", id, ""}},
		},
		{
			name:    "Health",
			replies: []wireReply{{Code: http.StatusOK, Body: `{"status":"ok","sampler":"transcript"}`}},
			call: func(ctx context.Context, c *Client) error {
				hr, err := c.HealthContext(ctx)
				if err == nil && hr.Sampler != "transcript" {
					t.Errorf("health = %+v", hr)
				}
				return err
			},
			want: []wireRequest{{"GET", "/v1/health", "", "", ""}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := &recorder{replies: tc.replies}
			hts := httptest.NewServer(rec)
			defer hts.Close()
			c := &Client{BaseURL: hts.URL, ClientID: id, Reads: 4, Sweeps: 50, Seed: 7, RetryBackoff: time.Millisecond}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := tc.call(ctx, c); err != nil {
				t.Fatal(err)
			}
			rec.mu.Lock()
			defer rec.mu.Unlock()
			if len(rec.got) != len(tc.want) {
				t.Fatalf("%d requests, want %d:\n got  %+v\n want %+v", len(rec.got), len(tc.want), rec.got, tc.want)
			}
			for i := range tc.want {
				if rec.got[i] != tc.want[i] {
					t.Errorf("request %d:\n got  %+v\n want %+v", i, rec.got[i], tc.want[i])
				}
			}
		})
	}
}

// submitJ1 is a transcript call that submits one interactive job and
// expects the scripted ID j1.
func submitJ1(compiled *qubo.Compiled) func(context.Context, *Client) error {
	return func(ctx context.Context, c *Client) error {
		got, err := c.SubmitJob(ctx, compiled, Job{}, PriorityInteractive)
		if err == nil && got != "j1" {
			return fmt.Errorf("job ID %q, want j1", got)
		}
		return err
	}
}
