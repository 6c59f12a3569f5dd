package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// TestLoadgenSelfHostedSmoke runs the full self-hosted topology — three
// backends, pool front, job API — for a short window and checks the
// report is coherent and prints as the JSON loadgen writes to stdout.
func TestLoadgenSelfHostedSmoke(t *testing.T) {
	cfg := loadCfg{
		backends:    3,
		duration:    800 * time.Millisecond,
		concurrency: 4,
		clients:     2,
		queue:       16,
		workers:     2,
		vars:        16,
		reads:       2,
		sweeps:      32,
		seed:        1,
	}
	rep, err := run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.JobsDone == 0 {
		t.Fatalf("no jobs completed: %+v", rep)
	}
	if rep.QPS <= 0 || rep.P50Millis <= 0 || rep.P99Millis < rep.P50Millis {
		t.Fatalf("implausible latency stats: %+v", rep)
	}
	if rep.ShedRate < 0 || rep.ShedRate > 1 {
		t.Fatalf("shed rate out of range: %+v", rep)
	}

	var out bytes.Buffer
	if err := writeReport(&out, rep); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]report
	if err := json.Unmarshal(out.Bytes(), &decoded); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if decoded["service"].JobsDone != rep.JobsDone {
		t.Fatalf("report round-trip mismatch: %+v vs %+v", decoded["service"], rep)
	}
}
