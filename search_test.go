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

// emptyTriangleSampler returns an empty sample set for 3-variable
// models and one row read 5 times for every other model.
type emptyTriangleSampler struct{}

func (emptyTriangleSampler) Sample(c *qubo.Compiled) (*anneal.SampleSet, error) {
	if c.N == 3 {
		return &anneal.SampleSet{}, nil
	}
	return &anneal.SampleSet{Samples: []anneal.Sample{{X: make([]qubo.Bit, c.N), Occurrences: 5}}}, nil
}

// frustratedCycles builds a frustrated triangle and a frustrated
// 4-cycle over seven variables, two components that presolve cannot
// reduce.
func frustratedCycles() (*qubo.Model, error) {
	m := qubo.New(7)
	for i := 0; i < 7; i++ {
		m.AddLinear(i, -1)
	}
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {5, 6}, {3, 6}} {
		m.AddQuadratic(e[0], e[1], 1)
	}
	return m, nil
}

// An empty set from one shard must not hide the reads the other shards
// spent: the attempt has no candidate, but its reads and kernel
// counters still count. The old aggregation returned at the first empty
// set, so a shard sampled first left the other shard's reads out of
// SolveStats and qsmt_solve_reads_total. The model is a frustrated
// triangle and a frustrated 4-cycle, which presolve cannot reduce; a
// one-member batch puts them on the tier plan and ExactShardVars -1 on
// the sampler.
func TestSearchCountsReadsPastAnEmptyShard(t *testing.T) {
	c := &stubConstraint{
		name:   "two-components",
		vars:   7,
		model:  frustratedCycles,
		decode: func([]qubo.Bit) (Witness, error) { return Witness{Kind: WitnessString}, nil },
	}
	m := NewSolverMetrics(obs.NewRegistry())
	s := NewSolver(&Options{
		Sampler:        emptyTriangleSampler{},
		ExactShardVars: -1,
		MaxAttempts:    2,
		Metrics:        m,
	})
	br, err := s.SolveBatch(context.Background(), []Constraint{c})
	if err != nil {
		t.Fatal(err)
	}
	if err := br.Items[0].Err; !errors.Is(err, ErrNoModel) {
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
// WarmSeeded but never WarmHits, reporting 0/4 on this case. Optimize
// samples the whole model only with a custom sampler (the default plans
// this case onto exact entries, which take no warm starts), so the test
// sets the default annealer's configuration explicitly.
func TestOptimizeWholeModelCountsWarmHits(t *testing.T) {
	s := NewSolver(&Options{Seed: 7, Sampler: &anneal.SimulatedAnnealer{Reads: 64, Sweeps: 1000, Seed: 7}})
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

// The hot paths of the benchmark stay allocation-lean: a whole-model
// Solve allocates no more than the per-entry-point loop the search loop
// replaced, a memoized incremental re-solve — one partition pass, no
// component model — no more than its count once it stopped building
// component models, and a batch member on a warm compile cache no more
// than its count once exact sets were kept in the cache. The bounds are counts on go1.24; other toolchains
// allocate differently, so the guard runs on go1.24 only.
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
	if got := testing.AllocsPerRun(20, func() { sess.Solve(ctx, "path", c) }); got > 29 {
		t.Errorf("memoized incremental re-solve: %v allocs, want ≤ 29", got)
	}
	s := NewSolver(nil)
	eq := Equality("hello")
	if got := testing.AllocsPerRun(20, func() { s.Solve(eq) }); got > 29 {
		t.Errorf("Solve(Equality): %v allocs, want ≤ 29", got)
	}
	// A batch member on a warm cache — the batch's gated solver copy —
	// solving a model whose two exact entries are both kept in the
	// cache; re-enumerating them costs 34 allocations more (88 in all).
	batched := &Solver{opts: NewSolver(&Options{CompileCache: qubo.NewCache(8)}).opts, gate: make(chan struct{}, 1)}
	cycles := &stubConstraint{
		name:   "triangle-and-4-cycle",
		vars:   7,
		model:  frustratedCycles,
		decode: func([]qubo.Bit) (Witness, error) { return Witness{Kind: WitnessString}, nil },
	}
	if _, err := batched.SolveContext(ctx, cycles); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(20, func() { batched.SolveContext(ctx, cycles) }); got > 54 {
		t.Errorf("warm-cache batch member: %v allocs, want ≤ 54", got)
	}
}

// An exact entry's set is deterministic, so a search enumerates it once:
// later attempts reuse the set instead of re-enumerating up to 2^16
// states, and count no reads for it. The conjunction below is
// unsatisfiable and plans onto six exact entries, so every attempt
// fails verification and the search runs its whole budget.
func TestExactEntryEnumeratedOncePerSearch(t *testing.T) {
	ctx := context.Background()
	c := And(Periodic(2, 4), Palindrome(4), CharAt('a', 0, 4), CharAt('b', 1, 4))
	s := NewSolver(nil)
	model, err := c.BuildModel()
	if err != nil {
		t.Fatal(err)
	}
	var st SolveStats
	work, red := presolve(model, nil, &st)
	pl := s.newPlan(work, red, model.N(), &st)
	first := map[int]*anneal.SampleSet{}
	reads := 0
	for attempt := 0; attempt < 3; attempt++ {
		if err := s.sampleShards(ctx, &pl, attempt, &st); err != nil {
			t.Fatal(err)
		}
		for i, p := range pl.entries {
			if p.tier != tierExact {
				continue
			}
			if attempt == 0 {
				first[i] = p.set
				reads += p.set.TotalReads()
			} else if p.set != first[i] {
				t.Errorf("attempt %d re-enumerated exact entry %d", attempt, i)
			}
		}
	}
	if len(first) == 0 {
		t.Fatal("no exact entry in the plan; the test needs one")
	}

	st = SolveStats{}
	if _, err := s.solveContext(ctx, c, &st); !errors.Is(err, ErrNoModel) {
		t.Fatalf("err = %v, want ErrNoModel", err)
	}
	if st.Attempts != s.opts.MaxAttempts || st.Reads != reads {
		t.Errorf("attempts %d, reads %d; want %d attempts and the first attempt's %d reads",
			st.Attempts, st.Reads, s.opts.MaxAttempts, reads)
	}
}
