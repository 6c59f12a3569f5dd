package qsmt

import (
	"context"
	"strings"
	"sync"
	"testing"

	"qsmt/internal/anneal"
	"qsmt/internal/qubo"
)

// Regression tests for three edge-case bugs: a stale SolveStats.BestEnergy
// when the first attempt's sample set is empty, witness-dedup key
// collisions between string and index witnesses in Enumerate, and
// RunContext discarding completed-stage work on a mid-chain failure.

// stubConstraint lets a test script every Constraint method.
type stubConstraint struct {
	name   string
	vars   int
	model  func() (*qubo.Model, error)
	decode func(x []qubo.Bit) (Witness, error)
	check  func(Witness) error
}

func (c *stubConstraint) Name() string                     { return c.name }
func (c *stubConstraint) NumVars() int                     { return c.vars }
func (c *stubConstraint) BuildModel() (*qubo.Model, error) { return c.model() }
func (c *stubConstraint) Decode(x []qubo.Bit) (Witness, error) {
	return c.decode(x)
}
func (c *stubConstraint) Check(w Witness) error {
	if c.check == nil {
		return nil
	}
	return c.check(w)
}

// scriptedSampler replays a fixed sequence of sample sets, repeating the
// last one once the script runs out.
type scriptedSampler struct {
	mu    sync.Mutex
	calls int
	sets  []*anneal.SampleSet
}

func (s *scriptedSampler) Sample(*qubo.Compiled) (*anneal.SampleSet, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := s.calls
	if i >= len(s.sets) {
		i = len(s.sets) - 1
	}
	s.calls++
	return s.sets[i], nil
}

// An empty first sample set must not freeze BestEnergy at the zero
// value: the model's true best energy here is 5, reached only on the
// second attempt. The old code assigned BestEnergy on attempt 0 only,
// so an empty attempt 0 reported 0 — an energy no sample ever had.
func TestBestEnergySurvivesEmptyFirstAttempt(t *testing.T) {
	c := &stubConstraint{
		name: "stub-offset",
		vars: 1,
		model: func() (*qubo.Model, error) {
			m := qubo.New(1)
			m.AddLinear(0, 2)
			m.AddOffset(5)
			return m, nil
		},
		decode: func(x []qubo.Bit) (Witness, error) {
			return Witness{Kind: WitnessString, Str: "ok"}, nil
		},
	}
	samp := &scriptedSampler{sets: []*anneal.SampleSet{
		{}, // attempt 0: sampler produced nothing
		{Samples: []anneal.Sample{{X: []qubo.Bit{0}, Energy: 5, Occurrences: 1}}},
	}}
	s := NewSolver(&Options{Sampler: samp})
	res, err := s.Solve(c)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if res.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", res.Attempts)
	}
	if res.Stats.BestEnergy != 5 {
		t.Fatalf("BestEnergy = %g, want 5 (stale zero value leaked)", res.Stats.BestEnergy)
	}
	if res.Stats.Reads != 1 {
		t.Errorf("reads = %d, want 1", res.Stats.Reads)
	}
}

// BestEnergy must be the minimum across attempts, not the last attempt's
// best.
func TestBestEnergyIsMinimumAcrossAttempts(t *testing.T) {
	// The first attempt samples energy -3 but its candidate fails to
	// decode; the second attempt verifies at energy 2. The recorded best
	// must keep the first attempt's -3.
	c := &stubConstraint{
		name: "stub-min",
		vars: 1,
		model: func() (*qubo.Model, error) {
			return qubo.New(1), nil
		},
		decode: func(x []qubo.Bit) (Witness, error) {
			if x[0] == 1 {
				return Witness{Kind: WitnessString, Str: "done"}, nil
			}
			return Witness{}, errWontVerify
		},
	}
	samp := &scriptedSampler{sets: []*anneal.SampleSet{
		{Samples: []anneal.Sample{{X: []qubo.Bit{0}, Energy: -3, Occurrences: 1}}},
		{Samples: []anneal.Sample{{X: []qubo.Bit{1}, Energy: 2, Occurrences: 1}}},
	}}
	s := NewSolver(&Options{Sampler: samp})
	res, err := s.Solve(c)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if res.Stats.BestEnergy != -3 {
		t.Fatalf("BestEnergy = %g, want -3 (minimum across attempts)", res.Stats.BestEnergy)
	}
}

var errWontVerify = &decodeError{"will not verify"}

type decodeError struct{ msg string }

func (e *decodeError) Error() string { return e.msg }

// A string witness "i:3"-alike and an index witness 3 are distinct
// models and must both be enumerated. The old dedup key rendered the
// index witness as "#3" — the same key as the literal string "#3" — so
// one of the two was silently dropped.
func TestEnumerateNoKindCollision(t *testing.T) {
	c := &stubConstraint{
		name: "stub-mixed",
		vars: 1,
		model: func() (*qubo.Model, error) {
			return qubo.New(1), nil // one free variable: both assignments are ground states
		},
		decode: func(x []qubo.Bit) (Witness, error) {
			if x[0] == 0 {
				return Witness{Kind: WitnessString, Str: "#3"}, nil
			}
			return Witness{Kind: WitnessIndex, Index: 3}, nil
		},
	}
	s := NewSolver(&Options{Seed: 4})
	ws, err := s.Enumerate(c, 2)
	if err != nil {
		t.Fatalf("enumerate: %v", err)
	}
	if len(ws) != 2 {
		t.Fatalf("got %d witnesses, want 2 (kinds collided in dedup): %+v", len(ws), ws)
	}
	kinds := map[int]bool{}
	for _, w := range ws {
		kinds[int(w.Kind)] = true
	}
	if len(kinds) != 2 {
		t.Fatalf("witnesses share a kind: %+v", ws)
	}
}

// A mid-chain pipeline failure must hand back the stages that already
// completed, not discard them.
func TestRunContextPartialResultOnFailure(t *testing.T) {
	p := NewPipeline(Equality("ok")).
		Reverse().
		Then("boom", func(string) Constraint { return failingConstraint{} })
	s := NewSolver(&Options{Seed: 2})
	res, err := s.Run(p)
	if err == nil {
		t.Fatal("failing stage reported success")
	}
	if res == nil {
		t.Fatal("mid-chain failure discarded the completed stages")
	}
	if len(res.Stages) != 2 {
		t.Fatalf("partial result has %d stages, want 2", len(res.Stages))
	}
	if res.Stages[0].Output != "ok" || res.Stages[1].Output != "ko" {
		t.Fatalf("stage outputs = %q, %q", res.Stages[0].Output, res.Stages[1].Output)
	}
	if res.Output != "ko" {
		t.Fatalf("partial Output = %q, want last completed stage \"ko\"", res.Output)
	}
	if res.Elapsed <= 0 {
		t.Error("partial result has no elapsed time")
	}
}

// When the generator itself fails there is nothing to salvage, but the
// result must still be non-nil with zero stages so callers can treat
// both failure shapes uniformly.
func TestRunContextGeneratorFailure(t *testing.T) {
	p := NewPipeline(failingConstraint{}).Reverse()
	s := NewSolver(nil)
	res, err := s.Run(p)
	if err == nil {
		t.Fatal("failing generator reported success")
	}
	if res == nil || len(res.Stages) != 0 || res.Output != "" {
		t.Fatalf("generator-failure result = %+v", res)
	}
}

// offWidthSampler returns one row one variable wider than the model.
type offWidthSampler struct{}

func (offWidthSampler) Sample(c *qubo.Compiled) (*anneal.SampleSet, error) {
	return &anneal.SampleSet{Samples: []anneal.Sample{{X: make([]qubo.Bit, c.N+1), Occurrences: 1}}}, nil
}

// A custom sampler's off-width row on a sharded entry is an error that
// names the shard, on both the batch path and the incremental path; it
// used to reach Shard.Scatter and panic (in SolveBatch, on a fan-out
// goroutine, taking the process down).
func TestOffWidthSampledRowIsAnError(t *testing.T) {
	s := NewSolver(&Options{Sampler: offWidthSampler{}, ExactShardVars: -1})
	c := AvoidChars([]byte("tt"), 6)

	br, err := s.SolveBatch(context.Background(), []Constraint{c})
	if err != nil {
		t.Fatalf("SolveBatch: %v", err)
	}
	if err := br.Items[0].Err; err == nil || !strings.Contains(err.Error(), "shard 0/6") || !strings.Contains(err.Error(), "13 variables") {
		t.Errorf("SolveBatch item error = %v, want one naming shard 0/6 and its 13-variable row", err)
	}

	_, err = s.NewIncrementalSession().Solve(context.Background(), "k", c)
	if err == nil || !strings.Contains(err.Error(), "component 0/6") || !strings.Contains(err.Error(), "13 variables") {
		t.Errorf("IncrementalSession.Solve error = %v, want one naming component 0/6 and its 13-variable row", err)
	}
}
