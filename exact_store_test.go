package qsmt

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"qsmt/internal/anneal"
	"qsmt/internal/qubo"
)

// Tests of the exact sets kept in the compile cache: an exact entry's
// enumerated set is stored in the cache entry of its compiled model, so
// a later solve that compiles the same model reads it instead of
// enumerating again.

// avoidTT is a batch of identical AvoidChars("tt", 6) constraints; each
// plans onto six identical 12-variable exact entries.
func avoidTT(n int) []Constraint {
	cs := make([]Constraint, n)
	for i := range cs {
		cs[i] = AvoidChars([]byte("tt"), 6)
	}
	return cs
}

// sameResult reports a difference between two results' witnesses,
// energies and attempt counts.
func sameResult(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if got.Witness != want.Witness || got.Energy != want.Energy || got.Attempts != want.Attempts {
		t.Errorf("%s: got (%+v, %g, %d attempts), want (%+v, %g, %d attempts)", what,
			got.Witness, got.Energy, got.Attempts, want.Witness, want.Energy, want.Attempts)
	}
}

// planSets plans c as Solve does and runs its first sampling step,
// returning every exact entry's set in plan order.
func planSets(t *testing.T, s *Solver, c Constraint) []*anneal.SampleSet {
	t.Helper()
	model, err := c.BuildModel()
	if err != nil {
		t.Fatal(err)
	}
	var st SolveStats
	work, red := presolve(model, nil, &st)
	pl := s.newPlan(work, red, model.N(), &st)
	if err := s.sampleShards(context.Background(), &pl, 0, &st); err != nil {
		t.Fatal(err)
	}
	var sets []*anneal.SampleSet
	for _, p := range pl.entries {
		if p.tier == tierExact {
			sets = append(sets, p.set)
		}
	}
	if len(sets) == 0 {
		t.Fatalf("%s plans no exact entry; the test needs one", c.Name())
	}
	return sets
}

// A second batch on a warm cache enumerates nothing: every exact entry
// is served from the cache, so no reads are counted, and the results
// are those of the first batch and of a cache-free solver.
func TestSolveBatchReusesExactSets(t *testing.T) {
	ctx := context.Background()
	cs := avoidTT(8)
	ref, err := NewSolver(&Options{Seed: 7}).SolveBatch(ctx, cs)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSolver(&Options{Seed: 7, CompileCache: qubo.NewCache(32)})
	first, err := s.SolveBatch(ctx, cs)
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.SolveBatch(ctx, cs)
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range second.Items {
		if it.Err != nil || first.Items[i].Err != nil || ref.Items[i].Err != nil {
			t.Fatalf("item %d: errors %v / %v / %v", i, it.Err, first.Items[i].Err, ref.Items[i].Err)
		}
		st := it.Result.Stats
		if st.Shards != 6 || st.ExactShards != 6 {
			t.Fatalf("item %d: %d of %d shards exact, want 6 of 6", i, st.ExactShards, st.Shards)
		}
		if st.Reads != 0 {
			t.Errorf("item %d: %d reads on a warm cache, want 0 (every exact set stored)", i, st.Reads)
		}
		sameResult(t, "second batch vs first", it.Result, first.Items[i].Result)
		sameResult(t, "second batch vs cache-free", it.Result, ref.Items[i].Result)
	}
}

// A stored set is served only at the MaxStates it was enumerated at:
// with CandidatesPerAttempt 1 an exact entry keeps one state, with 16
// up to sixteen, and two solvers sharing a cache must each see the set
// their cache-free twin enumerates.
func TestStoredExactSetKeyedByMaxStates(t *testing.T) {
	ctx := context.Background()
	c := AvoidChars([]byte("tt"), 6)
	cache := qubo.NewCache(32)
	narrow := NewSolver(&Options{Seed: 3, CandidatesPerAttempt: 1, CompileCache: cache})
	wide := NewSolver(&Options{Seed: 3, CandidatesPerAttempt: 16, CompileCache: cache})
	twins := map[*Solver]*Solver{
		narrow: NewSolver(&Options{Seed: 3, CandidatesPerAttempt: 1}),
		wide:   NewSolver(&Options{Seed: 3, CandidatesPerAttempt: 16}),
	}
	// Each solver warms the cache in turn, and each reads after the other.
	for _, s := range []*Solver{narrow, wide, narrow, wide} {
		if _, err := s.SolveBatch(ctx, []Constraint{c}); err != nil {
			t.Fatal(err)
		}
		for _, check := range []*Solver{narrow, wide} {
			got, want := planSets(t, check, c), planSets(t, twins[check], c)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("MaxStates %d: the shared cache served a set its cache-free twin does not enumerate",
					check.opts.CandidatesPerAttempt)
			}
			gotRes, err := check.Solve(c)
			if err != nil {
				t.Fatal(err)
			}
			wantRes, err := twins[check].Solve(c)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "shared cache vs cache-free twin", gotRes, wantRes)
		}
	}
	if n := planSets(t, narrow, c)[0].Len(); n != 1 {
		t.Errorf("MaxStates 1 set has %d states", n)
	}
	if n := planSets(t, wide, c)[0].Len(); n <= 1 {
		t.Errorf("MaxStates 16 set has %d states; the test needs a degenerate ground manifold", n)
	}
	// The narrow solver filled the slots first, so it reads them back.
	if a, b := planSets(t, narrow, c), planSets(t, narrow, c); a[0] != b[0] {
		t.Error("the narrow solver re-enumerated an exact entry its cache entry keeps")
	}
}

// copySets deep-copies sample sets, so a later write into a shared
// set's rows shows as a difference.
func copySets(sets []*anneal.SampleSet) []*anneal.SampleSet {
	out := make([]*anneal.SampleSet, len(sets))
	for i, ss := range sets {
		cp := &anneal.SampleSet{Samples: make([]anneal.Sample, ss.Len()), Kernel: ss.Kernel}
		for k, smp := range ss.Samples {
			cp.Samples[k] = smp
			cp.Samples[k].X = append([]qubo.Bit(nil), smp.X...)
		}
		out[i] = cp
	}
	return out
}

// Concurrent batches, solves and optimizations on one shared cache
// read the same stored sets, and none of them writes into a stored
// set's rows: candidate merging scatters from them, lifting reads the
// merged buffer, and the optimize sweep enumerates its own states.
// Under -race a write racing a read fails the test outright.
func TestSharedExactSetsConcurrent(t *testing.T) {
	ctx := context.Background()
	cs := append(avoidTT(4), AvoidChars([]byte("qz"), 5), And(Periodic(2, 4), Palindrome(4), CharAt('a', 0, 4)))
	hard := []Constraint{AvoidChars([]byte("tt"), 3)}
	soft := []SoftConstraint{Soft(CharAt('a', 0, 3), 1)}
	cache := qubo.NewCache(64)
	s := NewSolver(&Options{Seed: 5, CompileCache: cache})
	ref, err := NewSolver(&Options{Seed: 5}).SolveBatch(ctx, cs)
	if err != nil {
		t.Fatal(err)
	}
	refOpt, err := NewSolver(&Options{Seed: 5}).Optimize(hard, soft)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SolveBatch(ctx, cs); err != nil {
		t.Fatal(err)
	}
	stored := map[Constraint][]*anneal.SampleSet{}
	snapshot := map[Constraint][]*anneal.SampleSet{}
	for _, c := range cs {
		stored[c] = planSets(t, s, c)
		snapshot[c] = copySets(stored[c])
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			br, err := s.SolveBatch(ctx, cs)
			if err != nil {
				t.Error(err)
				return
			}
			for i, it := range br.Items {
				if it.Err != nil || ref.Items[i].Err != nil {
					t.Errorf("item %d: errors %v / %v", i, it.Err, ref.Items[i].Err)
					continue
				}
				if it.Result.Stats.Reads != 0 {
					t.Errorf("item %d: %d reads on a warm cache", i, it.Result.Stats.Reads)
				}
				sameResult(t, "concurrent batch vs cache-free", it.Result, ref.Items[i].Result)
			}
			res, err := s.Optimize(hard, soft)
			if err != nil {
				t.Error(err)
				return
			}
			sameResult(t, "concurrent Optimize vs cache-free", res, refOpt)
		}()
	}
	wg.Wait()

	for _, c := range cs {
		got := planSets(t, s, c)
		for i := range got {
			if got[i] != stored[c][i] {
				t.Errorf("%s entry %d: the stored set was replaced", c.Name(), i)
			}
		}
		if !reflect.DeepEqual(got, snapshot[c]) {
			t.Errorf("%s: a stored set's rows changed", c.Name())
		}
	}
}
