package anneal

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"qsmt/internal/qubo"
)

func TestSampleContextCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := frustratedModel(rng, 12).Compile()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	samplers := []ContextSampler{
		&SimulatedAnnealer{Reads: 4, Sweeps: 100},
		&ParallelTempering{Reads: 2, Sweeps: 100},
		&ExactSolver{},
		&GreedySampler{Reads: 4},
		&RandomSampler{Reads: 4},
		&TabuSampler{Reads: 2},
		&NoisySampler{Base: &RandomSampler{Reads: 4}, FlipProb: 0.1},
	}
	for _, s := range samplers {
		ss, err := s.SampleContext(ctx, c)
		if err == nil {
			t.Errorf("%T: cancelled context accepted (got %v)", s, ss)
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%T: error %v does not wrap context.Canceled", s, err)
		}
	}
}

func TestSampleContextDeadlineAbortsLongRun(t *testing.T) {
	// A job that would take far longer than the deadline: the sampler
	// must notice the expired context between sweeps and abort promptly.
	rng := rand.New(rand.NewSource(11))
	c := frustratedModel(rng, 64).Compile()
	sa := &SimulatedAnnealer{Reads: 64, Sweeps: 5_000_000, Workers: 2}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := sa.SampleContext(ctx, c)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("deadline expiry produced no error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error %v does not wrap context.DeadlineExceeded", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("abort took %v, want prompt return after 50ms deadline", elapsed)
	}
}

func TestSampleWithContextAdapter(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := frustratedModel(rng, 8).Compile()
	// plainSampler has no SampleContext: the adapter must still refuse
	// to run it under an expired context.
	plain := plainSampler{base: &RandomSampler{Reads: 4}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SampleWithContext(ctx, plain, c); !errors.Is(err, context.Canceled) {
		t.Errorf("adapter ran plain sampler under cancelled ctx: %v", err)
	}
	if ss, err := SampleWithContext(context.Background(), plain, c); err != nil || ss.Len() == 0 {
		t.Errorf("adapter failed on live ctx: %v", err)
	}
}

// plainSampler hides the SampleContext method of its base so the
// fallback path of SampleWithContext is exercised.
type plainSampler struct{ base *RandomSampler }

func (p plainSampler) Sample(c *qubo.Compiled) (*SampleSet, error) { return p.base.Sample(c) }

func TestSampleEnergiesMatchRecomputation(t *testing.T) {
	// Regression for incremental-energy drift: every stored Sample.Energy
	// must equal a from-scratch Compiled.Energy evaluation bit-for-bit,
	// including the PostDescent path.
	rng := rand.New(rand.NewSource(9))
	c := frustratedModel(rng, 20).Compile()
	samplers := map[string]interface {
		Sample(*qubo.Compiled) (*SampleSet, error)
	}{
		"sa":        &SimulatedAnnealer{Reads: 32, Sweeps: 2000},
		"sa+post":   &SimulatedAnnealer{Reads: 32, Sweeps: 2000, PostDescent: true},
		"tempering": &ParallelTempering{Reads: 4, Sweeps: 500},
		"greedy":    &GreedySampler{Reads: 16},
		"tabu":      &TabuSampler{Reads: 4},
	}
	for name, s := range samplers {
		ss, err := s.Sample(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, sm := range ss.Samples {
			if got := c.Energy(sm.X); sm.Energy != got {
				t.Errorf("%s: stored energy %v != recomputed %v", name, sm.Energy, got)
			}
		}
	}
}
