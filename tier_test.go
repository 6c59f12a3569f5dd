package qsmt

import (
	"context"
	"math"
	"strings"
	"testing"

	"qsmt/internal/anneal"
	"qsmt/internal/qubo"
)

// These tests pin the shard tier plan of the default Solve: presolved
// components are solved closed-form, by exact enumeration or by the
// sampler, and merged candidates come from the shards' cross product
// (shardCandidates).

// planAndSample runs one attempt of the shard tiers on model.
func planAndSample(t *testing.T, s *Solver, model *qubo.Model) (*plan, int) {
	t.Helper()
	var st SolveStats
	pl := s.newPlan(model, nil, true, &st)
	if err := s.sampleShards(context.Background(), &pl, 0, &st); err != nil {
		t.Fatal(err)
	}
	rows := pl.aggregate(&st)
	if rows <= 0 {
		t.Fatalf("rows = %d", rows)
	}
	return &pl, rows
}

func drain(g shardCandidates) (xs [][]qubo.Bit, energies []float64) {
	for {
		x, e, ok := g.next()
		if !ok {
			return xs, energies
		}
		xs = append(xs, append([]qubo.Bit(nil), x...)) // x is reused
		energies = append(energies, e)
	}
}

func TestShardCandidatesOneVariableShards(t *testing.T) {
	const n, limit = 20, 16
	model := qubo.New(n) // 20 free one-variable shards
	s := NewSolver(&Options{Seed: 5, CandidatesPerAttempt: limit})
	pl, maxLen := planAndSample(t, s, model)
	if maxLen != 1 {
		t.Fatalf("maxLen = %d, want 1 (one closed-form row per shard)", maxLen)
	}
	xs, _ := drain(newShardCandidates(pl, maxLen, 5, 0))
	if len(xs) != limit {
		t.Fatalf("got %d candidates, want %d", len(xs), limit)
	}
	seen := map[string]bool{}
	for _, x := range xs {
		if seen[bitKey(x)] {
			t.Errorf("candidate %s repeated", bitKey(x))
		}
		seen[bitKey(x)] = true
	}

	// Candidate 0 is the all-best merge.
	want := make([]qubo.Bit, n)
	for _, p := range pl.entries {
		p.shard.Scatter(want, p.set.Samples[0].X)
	}
	if bitKey(xs[0]) != bitKey(want) {
		t.Errorf("candidate 0 = %s, want the all-best merge %s", bitKey(xs[0]), bitKey(want))
	}
	// The first two draws fill the free variables with zeros, then ones.
	if got := bitKey(xs[1]); got != strings.Repeat("0", n) {
		t.Errorf("candidate 1 = %s, want all zeros", got)
	}
	if got := bitKey(xs[2]); got != strings.Repeat("1", n) {
		t.Errorf("candidate 2 = %s, want all ones", got)
	}

	// Draws are deterministic for a given seed.
	again, _ := drain(newShardCandidates(pl, maxLen, 5, 0))
	for k := range xs {
		if bitKey(xs[k]) != bitKey(again[k]) {
			t.Fatalf("candidate %d differs between identical streams: %s vs %s", k, bitKey(xs[k]), bitKey(again[k]))
		}
	}
	other, _ := drain(newShardCandidates(pl, maxLen, 6, 0))
	differs := false
	for k := 3; k < limit; k++ {
		differs = differs || bitKey(xs[k]) != bitKey(other[k])
	}
	if !differs {
		t.Error("seeds 5 and 6 drew identical candidates")
	}
}

// Draws keep every shard at its best energy, so on exact shards with
// tied ground states every candidate is a ground state of the model and
// carries its exact energy.
func TestShardCandidatesCrossGroundManifolds(t *testing.T) {
	const pairs = 6
	model := qubo.New(2 * pairs)
	for p := 0; p < pairs; p++ {
		// x_a XOR x_b: ground states 01 and 10 at energy -1.
		a, b := 2*p, 2*p+1
		model.AddLinear(a, -1)
		model.AddLinear(b, -1)
		model.AddQuadratic(a, b, 2)
	}
	s := NewSolver(&Options{Seed: 3})
	pl, maxLen := planAndSample(t, s, model)
	xs, es := drain(newShardCandidates(pl, maxLen, 3, 0))
	if len(xs) != 16 {
		t.Fatalf("got %d candidates, want 16", len(xs))
	}
	seen := map[string]bool{}
	for k, x := range xs {
		if e := model.Energy(x); math.Abs(e-es[k]) > 1e-9 || math.Abs(e+pairs) > 1e-9 {
			t.Errorf("candidate %d: energy %g, reported %g, want ground %d", k, e, es[k], -pairs)
		}
		if seen[bitKey(x)] {
			t.Errorf("candidate %s repeated", bitKey(x))
		}
		seen[bitKey(x)] = true
	}
}

// A cross product smaller than the candidate budget ends the stream
// instead of repeating candidates.
func TestShardCandidatesExhaustSmallProducts(t *testing.T) {
	model := qubo.New(2)
	s := NewSolver(&Options{Seed: 2})
	pl, maxLen := planAndSample(t, s, model)
	xs, _ := drain(newShardCandidates(pl, maxLen, 2, 0))
	if len(xs) != 4 {
		t.Errorf("got %d candidates over 2 free variables, want 4", len(xs))
	}
	model = qubo.New(3)
	model.AddLinear(0, -1)
	model.AddLinear(1, 1)
	model.AddQuadratic(1, 2, 1)
	model.AddLinear(2, 1)
	pl, maxLen = planAndSample(t, s, model)
	xs, _ = drain(newShardCandidates(pl, maxLen, 2, 0))
	if len(xs) != 1 {
		t.Errorf("got %d candidates of a unique-ground model, want 1", len(xs))
	}
}

// TestExactTieAvoidComponent is the regression for exact enumeration
// dropping rounding-drifted ties. AvoidChars("tt", 6) presolves to a
// 12-variable component whose tied ground states sum to energies that
// differ by about 1e-13; the component must come back with all of them
// (capped), not one drift-favoured state, and the default Solve must
// find a witness.
func TestExactTieAvoidComponent(t *testing.T) {
	c := AvoidChars([]byte("tt"), 6)
	model, err := c.BuildModel()
	if err != nil {
		t.Fatal(err)
	}
	red := qubo.Presolve(model)
	found := false
	for _, sh := range qubo.Components(red.Model) {
		if sh.Model.N() != 12 || sh.Model.NumQuadratic() == 0 {
			continue
		}
		found = true
		ss, err := (&anneal.ExactSolver{MaxStates: 16}).Sample(sh.Model.Compile())
		if err != nil {
			t.Fatal(err)
		}
		if ss.Len() < 2 {
			t.Errorf("12-variable component: %d ground state(s), want the tied manifold", ss.Len())
		}
		for _, smp := range ss.Samples {
			if d := smp.Energy - ss.Best().Energy; d > 1e-9 {
				t.Errorf("state %v is %g above the ground energy", smp.X, d)
			}
		}
	}
	if !found {
		t.Fatal("no 12-variable coupled component after presolve")
	}
	for seed := int64(1); seed <= 4; seed++ {
		res, err := NewSolver(&Options{Seed: seed}).Solve(c)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := c.Check(res.Witness); err != nil {
			t.Errorf("seed %d: witness %q fails Check: %v", seed, res.Witness.Str, err)
		}
	}
}

// The tier rule places a connected model like any shard: Includes'
// one-hot position selectors couple into one 4-variable component,
// which is enumerated, not annealed at 64×1000.
func TestTierRuleEnumeratesConnectedModel(t *testing.T) {
	res, err := NewSolver(nil).Solve(Includes("hello", "ll"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Witness.Index != 2 {
		t.Errorf("witness index %d, want 2", res.Witness.Index)
	}
	st := res.Stats
	if st.KernelProposals != 0 || st.ExactShards != 1 || st.Shards != 1 || !st.ShardFallback {
		t.Errorf("connected model: proposals %d, exact shards %d of %d, fallback %v; want 0, 1 of 1, true",
			st.KernelProposals, st.ExactShards, st.Shards, st.ShardFallback)
	}
}

// A model that presolve reduces to nothing is a zero-entry plan: its one
// candidate is the empty assignment, lifted, and no sampler runs.
func TestTierRuleEmptyPlanRunsNoSampler(t *testing.T) {
	res, err := NewSolver(nil).Solve(Equality("hi"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Witness.Str != "hi" {
		t.Errorf("witness %q, want \"hi\"", res.Witness.Str)
	}
	if res.Stats.Reads != 0 || res.Stats.KernelProposals != 0 {
		t.Errorf("reads %d, proposals %d; want none", res.Stats.Reads, res.Stats.KernelProposals)
	}
	if res.Shards != 1 {
		t.Errorf("Result.Shards = %d, want 1", res.Shards)
	}
}

// ExactShardVars defaults to 16, so the 16-variable shard of
// And(Periodic(2,8), Palindrome(8)) is enumerated with the five 8-variable
// ones: no shard reaches the annealer.
func TestTierRuleEnumeratesSixteenVariableShard(t *testing.T) {
	c := And(Periodic(2, 8), Palindrome(8))
	model, err := c.BuildModel()
	if err != nil {
		t.Fatal(err)
	}
	largest := 0
	for _, sh := range qubo.Components(qubo.Presolve(model).Model) {
		largest = max(largest, sh.Model.N())
	}
	if largest != 16 {
		t.Fatalf("largest presolved component has %d variables, want 16", largest)
	}
	res, err := NewSolver(nil).Solve(c)
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Stats; st.ExactShards != res.Shards || st.KernelProposals != 0 {
		t.Errorf("%d of %d shards exact, %d kernel proposals; want every shard exact and none",
			st.ExactShards, res.Shards, st.KernelProposals)
	}
}

// SolveStats.Sampler names the configured sampler only when some plan
// entry reached the sampler tier. Plans solved entirely closed-form or
// by enumeration, including a zero-entry plan, report "exact".
func TestTierRuleSamplerLabel(t *testing.T) {
	for _, tc := range []struct {
		c    Constraint
		want string
	}{
		{Palindrome(4), "exact"},
		{Equality("hi"), "exact"},
		{And(Periodic(2, 10), Palindrome(10)), "SimulatedAnnealer"}, // one 20-variable shard
	} {
		res, err := NewSolver(nil).Solve(tc.c)
		if err != nil {
			t.Fatalf("%s: %v", tc.c.Name(), err)
		}
		if got := res.Stats.Sampler; got != tc.want {
			t.Errorf("%s: Stats.Sampler = %q, want %q (reads %d)", tc.c.Name(), got, tc.want, res.Stats.Reads)
		}
	}
	res, err := NewSolver(&Options{Sampler: &anneal.SimulatedAnnealer{Reads: 8, Sweeps: 100, Seed: 1}}).Solve(Palindrome(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Stats.Sampler; got != "SimulatedAnnealer" {
		t.Errorf("custom whole-model sampler: Stats.Sampler = %q, want SimulatedAnnealer", got)
	}
}
