package qsmt

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"qsmt/internal/anneal"
	"qsmt/internal/obs"
	"qsmt/internal/qubo"
)

// Tests of the shared search loop (search.go): its stats accounting and
// its allocation budget.

// emptyPairSampler returns an empty sample set for 2-variable models and
// one row read 5 times for every other model.
type emptyPairSampler struct{}

func (emptyPairSampler) Sample(c *qubo.Compiled) (*anneal.SampleSet, error) {
	if c.N == 2 {
		return &anneal.SampleSet{}, nil
	}
	return &anneal.SampleSet{Samples: []anneal.Sample{{X: make([]qubo.Bit, c.N), Occurrences: 5}}}, nil
}

// An empty set from one shard must not hide the reads the other shards
// spent: the attempt has no candidate, but its reads and kernel
// counters still count. The old aggregation returned at the first empty
// set, so a 2-variable shard sampled first left the 3-variable shard's
// reads out of SolveStats and qsmt_solve_reads_total.
func TestSearchCountsReadsPastAnEmptyShard(t *testing.T) {
	c := &stubConstraint{
		name: "two-components",
		vars: 5,
		model: func() (*qubo.Model, error) {
			m := qubo.New(5)
			m.AddQuadratic(0, 1, 1)
			m.AddQuadratic(2, 3, 1)
			m.AddQuadratic(3, 4, 1)
			return m, nil
		},
		decode: func([]qubo.Bit) (Witness, error) { return Witness{Kind: WitnessString}, nil },
	}
	m := NewSolverMetrics(obs.NewRegistry())
	s := NewSolver(&Options{
		Sampler:        emptyPairSampler{},
		Shard:          true,
		ExactShardVars: -1,
		Presolve:       Off,
		MaxAttempts:    2,
		Metrics:        m,
	})
	_, err := s.Solve(c)
	if !errors.Is(err, ErrNoModel) {
		t.Fatalf("err = %v, want ErrNoModel (every attempt has an empty shard)", err)
	}
	if got := m.Reads.Value(); got != 10 {
		t.Errorf("reads = %v, want 10 (2 attempts × one 5-occurrence row)", got)
	}
	if got := m.Attempts.Value(); got != 2 {
		t.Errorf("attempts = %v, want 2", got)
	}
}

// Optimize's whole-model attempts count warm hits like every other
// sampling operation. The old whole-model optimize loop counted
// WarmSeeded but never WarmHits, reporting 0/4 on this case.
func TestOptimizeWholeModelCountsWarmHits(t *testing.T) {
	s := NewSolver(&Options{Seed: 7})
	res, err := s.Optimize(
		[]Constraint{CharAt('a', 0, 3)},
		[]SoftConstraint{Soft(MinLength(3), 2), Soft(CharAt('z', 1, 3), 0.5)})
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Stats; st.WarmSeeded != 4 || st.WarmHits != 4 {
		t.Errorf("warm hits %d/%d, want 4/4", st.WarmHits, st.WarmSeeded)
	}
}

// The search loop is allocation-neutral: the two hot paths of the
// benchmark — a memoized incremental re-solve and a whole-model Solve —
// allocate no more than the per-entry-point loops it replaced. The
// bounds are those loops' counts on go1.24; other toolchains allocate
// differently, so the guard runs on go1.24 only.
func TestSearchAllocsGuard(t *testing.T) {
	if !strings.HasPrefix(runtime.Version(), "go1.24") {
		t.Skipf("allocation bounds are measured on go1.24, running %s", runtime.Version())
	}
	ctx := context.Background()
	c := And(PrefixOf("ab", 5), Palindrome(5))
	sess := NewSolver(nil).NewIncrementalSession()
	if _, err := sess.Solve(ctx, "path", c); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(20, func() { sess.Solve(ctx, "path", c) }); got > 178 {
		t.Errorf("memoized incremental re-solve: %v allocs, want ≤ 178", got)
	}
	s := NewSolver(nil)
	eq := Equality("hello")
	if got := testing.AllocsPerRun(20, func() { s.Solve(eq) }); got > 29 {
		t.Errorf("Solve(Equality): %v allocs, want ≤ 29", got)
	}
}
