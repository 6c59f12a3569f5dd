package qsmt

import (
	"context"
	"errors"
	"sync"
	"testing"

	"qsmt/internal/anneal"
	"qsmt/internal/obs"
	"qsmt/internal/qubo"
	"qsmt/internal/strtheory"
)

// checkPalindrome fails the test unless s is a length-n palindrome.
func checkPalindrome(t *testing.T, s string, n int) {
	t.Helper()
	if len(s) != n {
		t.Fatalf("witness %q has length %d, want %d", s, len(s), n)
	}
	if strtheory.Reverse(s) != s {
		t.Fatalf("witness %q is not a palindrome", s)
	}
}

func TestIncrementalSessionSolvesLineage(t *testing.T) {
	s := testSolver(21)
	is := s.NewIncrementalSession()
	ctx := context.Background()

	r0, err := is.Solve(ctx, "x", Palindrome(8))
	if err != nil {
		t.Fatal(err)
	}
	checkPalindrome(t, r0.Witness.Str, 8)
	if !r0.Stats.Incremental {
		t.Error("Stats.Incremental not set on a session solve")
	}
	if r0.Shards <= 1 {
		t.Fatalf("palindrome(8) solved as %d components; the test needs a decomposable model", r0.Shards)
	}
	// The per-bit equality gadgets repeat across mirror pairs, so even
	// the first solve hits the memo on duplicate components — but not on
	// all of them (something must have been solved fresh).
	if r0.Stats.IncrementalHits >= r0.Shards {
		t.Errorf("first solve reported %d hits over %d components", r0.Stats.IncrementalHits, r0.Shards)
	}

	// A DFS child pins one position; its siblings differ only in that
	// pin, so almost all components must come from the session memo.
	r1, err := is.Solve(ctx, "x", And(Palindrome(8), CharAt('m', 0, 8)))
	if err != nil {
		t.Fatal(err)
	}
	checkPalindrome(t, r1.Witness.Str, 8)
	if r1.Witness.Str[0] != 'm' {
		t.Errorf("witness %q does not honor the pin at 0", r1.Witness.Str)
	}
	r2, err := is.Solve(ctx, "x", And(Palindrome(8), CharAt('n', 0, 8)))
	if err != nil {
		t.Fatal(err)
	}
	checkPalindrome(t, r2.Witness.Str, 8)
	if r2.Witness.Str[0] != 'n' {
		t.Errorf("witness %q does not honor the pin at 0", r2.Witness.Str)
	}
	if r2.Stats.IncrementalHits == 0 {
		t.Error("sibling solve reused no components from the memo")
	}

	// Re-checking an already-solved frame costs no component work at all.
	r3, err := is.Solve(ctx, "x", And(Palindrome(8), CharAt('m', 0, 8)))
	if err != nil {
		t.Fatal(err)
	}
	if r3.Stats.IncrementalHits != r3.Shards {
		t.Errorf("replayed solve reused %d of %d components, want all", r3.Stats.IncrementalHits, r3.Shards)
	}
	if r3.Witness.Str != r1.Witness.Str {
		t.Errorf("replayed solve witness %q, want the memoized %q", r3.Witness.Str, r1.Witness.Str)
	}
}

func TestIncrementalSessionMatchesSolverVerdicts(t *testing.T) {
	s := testSolver(22)
	is := s.NewIncrementalSession()
	ctx := context.Background()

	// Sat: verdict and witness agree with the plain solver.
	want, err := s.Solve(Includes("hello world", "o w"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := is.Solve(ctx, "i", Includes("hello world", "o w"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Witness.Index != want.Witness.Index {
		t.Errorf("session index %d, solver index %d", got.Witness.Index, want.Witness.Index)
	}

	// Unsat: the session classifies exactly like the solver.
	if _, err := is.Solve(ctx, "j", Includes("abc", "zz")); !errors.Is(err, ErrUnsatisfiable) {
		t.Errorf("session err = %v, want ErrUnsatisfiable", err)
	}
	if _, err := s.Solve(Includes("abc", "zz")); !errors.Is(err, ErrUnsatisfiable) {
		t.Errorf("solver err = %v, want ErrUnsatisfiable", err)
	}
}

func TestIncrementalSessionEmptyModel(t *testing.T) {
	s := testSolver(23)
	is := s.NewIncrementalSession()
	res, err := is.Solve(context.Background(), "e", Equality(""))
	if err != nil {
		t.Fatal(err)
	}
	if res.Witness.Str != "" || res.Vars != 0 {
		t.Errorf("empty equality solved as %+v", res.Witness)
	}
}

func TestIncrementalSessionReset(t *testing.T) {
	s := testSolver(24)
	is := s.NewIncrementalSession()
	ctx := context.Background()
	first, err := is.Solve(ctx, "x", Palindrome(6))
	if err != nil {
		t.Fatal(err)
	}
	// Warm: a replay of the same constraint hits on every component.
	warm, err := is.Solve(ctx, "x", Palindrome(6))
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.IncrementalHits != warm.Shards {
		t.Fatalf("replay reused %d of %d components", warm.Stats.IncrementalHits, warm.Shards)
	}
	is.Reset()
	// After Reset the solve behaves like the very first one again (only
	// within-model duplicate components hit).
	res, err := is.Solve(ctx, "x", Palindrome(6))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.IncrementalHits != first.Stats.IncrementalHits {
		t.Errorf("solve after Reset reported %d memo hits, want %d (same as a cold session)",
			res.Stats.IncrementalHits, first.Stats.IncrementalHits)
	}
}

// TestIncrementalSessionParentSeeding drives the sampled-component path
// (exact shard solving disabled; AvoidChars components survive presolve
// coupled) and checks that a child frame's fresh components are
// warm-started from the parent frame's witness. The child avoids a
// different character set over the same variable layout, so every
// component is fresh.
func TestIncrementalSessionParentSeeding(t *testing.T) {
	s := NewSolver(&Options{
		Sampler:        &anneal.SimulatedAnnealer{Reads: 16, Sweeps: 200, Seed: 5},
		ExactShardVars: -1,
	})
	is := s.NewIncrementalSession()
	ctx := context.Background()
	parent, err := is.Solve(ctx, "x", AvoidChars([]byte("tt"), 6))
	if err != nil {
		t.Fatal(err)
	}
	if parent.Stats.IncrementalParentSeeds != 0 {
		t.Errorf("first frame claimed %d parent seeds with no parent", parent.Stats.IncrementalParentSeeds)
	}
	if parent.Stats.PresolveEliminated != 0 {
		t.Fatalf("presolve eliminated %d variables; the components must reach the sampler whole", parent.Stats.PresolveEliminated)
	}
	child, err := is.Solve(ctx, "x", AvoidChars([]byte("uu"), 6))
	if err != nil {
		t.Fatal(err)
	}
	if child.Stats.IncrementalParentSeeds == 0 {
		t.Error("child frame's fresh components were not seeded from the parent witness")
	}
	if child.Stats.WarmSeeded == 0 {
		t.Error("child frame's fresh components were not warm-started")
	}
}

// TestIncrementalSessionConcurrent drives one session from many
// goroutines (distinct lineages, overlapping components); run with
// -race this doubles as the data-race check on the memo and parent
// maps.
func TestIncrementalSessionConcurrent(t *testing.T) {
	s := testSolver(25)
	is := s.NewIncrementalSession()
	ctx := context.Background()
	pins := []byte{'a', 'b', 'c', 'd'}
	var wg sync.WaitGroup
	errs := make([]error, len(pins))
	for i, p := range pins {
		wg.Add(1)
		go func(i int, p byte) {
			defer wg.Done()
			key := "x" + string(p)
			for depth := 0; depth < 2; depth++ {
				res, err := is.Solve(ctx, key, And(Palindrome(8), CharAt(p, depth, 8)))
				if err != nil {
					errs[i] = err
					return
				}
				if res.Witness.Str[depth] != p {
					errs[i] = errors.New("pin not honored: " + res.Witness.Str)
					return
				}
			}
		}(i, p)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("lineage %d: %v", i, err)
		}
	}
}

// An incremental solve presolves each fresh coupled component on its
// own; PresolveRatio must cover all of them — variables eliminated over
// variables that entered presolve, summed across the solve — not the
// ratio of the last component presolved. A component whose content
// repeats an earlier one in the same solve is a memo hit and never
// enters presolve.
func TestIncrementalPresolveRatioCoversEveryComponent(t *testing.T) {
	for _, c := range []Constraint{Palindrome(4), And(Palindrome(4), CharAt('x', 1, 4))} {
		res, err := NewSolver(&Options{Seed: 3}).NewIncrementalSession().Solve(context.Background(), "k", c)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		entered := 0
		seen := map[qubo.Fingerprint]bool{}
		for _, sh := range qubo.Components(mustModel(t, c)) {
			if fp := qubo.FingerprintOf(sh.Model); sh.Model.NumQuadratic() > 0 && !seen[fp] {
				seen[fp] = true
				entered += len(sh.Vars)
			}
		}
		st := res.Stats
		if want := float64(st.PresolveEliminated) / float64(entered); st.PresolveRatio != want {
			t.Errorf("%s: PresolveRatio = %g, want %d/%d = %g", c.Name(), st.PresolveRatio, st.PresolveEliminated, entered, want)
		}
	}
}

// exactProbe is unsatisfiable (position 0 cannot be both 'a' and 'b')
// and partitions into exact-tier components, so every attempt fails
// verification and a search runs its whole retry budget.
func exactProbe() Constraint {
	return And(Palindrome(4), CharAt('a', 0, 4), CharAt('b', 0, 4))
}

// An exact-tier component's set is deterministic, so an incremental
// search enumerates it once: every later attempt hands back the memo's
// set instead of enumerating again, and counts no reads for it.
func TestIncrementalExactComponentEnumeratedOncePerSearch(t *testing.T) {
	ctx := context.Background()
	c := exactProbe()
	model := mustModel(t, c)
	shards, fps := qubo.Partition(model)
	is := NewSolver(nil).NewIncrementalSession()
	pl := plan{model: model, entries: make([]shardPlan, len(shards)), mergeOnly: true}
	for i := range shards {
		pl.entries[i].shard = &shards[i]
	}
	var st SolveStats
	first := map[int]*anneal.SampleSet{}
	exact := 0
	for attempt := 0; attempt < 3; attempt++ {
		if err := is.sampleComponents(ctx, &pl, fps, nil, attempt, &st); err != nil {
			t.Fatal(err)
		}
		for i, p := range pl.entries {
			switch {
			case attempt == 0:
				first[i] = p.set // a memo hit within the solve is exact too
			case p.tier != tierExact:
			case p.set != first[i] || p.set != is.memo[fps[i]].set || !p.reused:
				t.Errorf("attempt %d re-enumerated exact component %d", attempt, i)
			default:
				exact++
			}
		}
	}
	if exact == 0 {
		t.Fatal("no exact component in the probe; the test needs one")
	}

	// End to end: a fresh session's full search reads exactly what a
	// one-attempt search reads.
	var one, all SolveStats
	if _, err := NewSolver(&Options{MaxAttempts: 1}).NewIncrementalSession().solve(ctx, "k", c, &one); !errors.Is(err, ErrNoModel) {
		t.Fatalf("one attempt: err = %v, want ErrNoModel", err)
	}
	s := NewSolver(nil)
	if _, err := s.NewIncrementalSession().solve(ctx, "k", c, &all); !errors.Is(err, ErrNoModel) {
		t.Fatalf("err = %v, want ErrNoModel", err)
	}
	if all.Attempts != s.opts.MaxAttempts || all.Reads != one.Reads {
		t.Errorf("attempts %d, reads %d; want %d attempts and the first attempt's %d reads",
			all.Attempts, all.Reads, s.opts.MaxAttempts, one.Reads)
	}
}

// ExactShards counts each shard at most once per solve, so it never
// exceeds Shards — not on an incremental search that retries, nor on a
// Solve or a SolveBatch.
func TestExactShardsAtMostShards(t *testing.T) {
	ctx := context.Background()
	c := exactProbe()
	var st SolveStats
	if _, err := NewSolver(nil).NewIncrementalSession().solve(ctx, "k", c, &st); !errors.Is(err, ErrNoModel) {
		t.Fatalf("incremental: err = %v, want ErrNoModel", err)
	}
	if st.Attempts < 2 || st.ExactShards == 0 || st.ExactShards > st.Shards {
		t.Errorf("incremental: %d attempts, ExactShards %d, Shards %d; want retries and 0 < ExactShards ≤ Shards",
			st.Attempts, st.ExactShards, st.Shards)
	}
	st = SolveStats{}
	if _, err := NewSolver(nil).solveContext(ctx, c, &st); !errors.Is(err, ErrNoModel) {
		t.Fatalf("Solve: err = %v, want ErrNoModel", err)
	}
	if st.ExactShards > st.Shards {
		t.Errorf("Solve: ExactShards %d > Shards %d", st.ExactShards, st.Shards)
	}
	m := NewSolverMetrics(obs.NewRegistry())
	if _, err := NewSolver(&Options{Metrics: m}).SolveBatch(ctx, []Constraint{c, Palindrome(4), And(Periodic(2, 6), Palindrome(6))}); err != nil {
		t.Fatal(err)
	}
	if exact, shards := m.ExactShards.Value(), m.Shards.Value(); shards == 0 || exact > shards {
		t.Errorf("SolveBatch: exact shards %g, shards %g; want ≤ shards > 0", exact, shards)
	}
}

// A memo hit runs no sampler, so it counts no reads: a repeated solve
// answered wholly from the memo reports Reads 0. A fingerprint is
// solved at most once per query: every component that repeats an
// earlier one of the same cold query is a hit.
func TestIncrementalMemoHitsCountNoReads(t *testing.T) {
	ctx := context.Background()
	for i, c := range []Constraint{
		And(Palindrome(4), CharAt('a', 0, 4)),
		And(PrefixOf("ab", 5), Palindrome(5)),
	} {
		_, fps := qubo.Partition(mustModel(t, c))
		distinct := map[qubo.Fingerprint]bool{}
		for _, fp := range fps {
			distinct[fp] = true
		}
		is := NewSolver(nil).NewIncrementalSession()
		var cold, warm SolveStats
		if _, err := is.solve(ctx, "k", c, &cold); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if cold.Attempts != 1 || cold.IncrementalHits != cold.Shards-len(distinct) {
			t.Errorf("case %d cold: %d attempts, %d hits over %d shards; want 1 attempt and %d hits",
				i, cold.Attempts, cold.IncrementalHits, cold.Shards, cold.Shards-len(distinct))
		}
		if _, err := is.solve(ctx, "k", c, &warm); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if warm.IncrementalHits != warm.Shards || warm.Reads != 0 {
			t.Errorf("case %d warm: %d hits over %d shards, %d reads; want every shard a hit and 0 reads",
				i, warm.IncrementalHits, warm.Shards, warm.Reads)
		}
	}
}
