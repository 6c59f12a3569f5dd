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
func planAndSample(t *testing.T, s *Solver, model *qubo.Model) ([]shardPlan, []*anneal.SampleSet, int) {
	t.Helper()
	var st SolveStats
	plans := s.planShards(qubo.Components(model), &st)
	sets, err := s.sampleShards(context.Background(), plans, 0, &st)
	if err != nil {
		t.Fatal(err)
	}
	maxLen := aggregateShardSets(model, sets, &st)
	if maxLen <= 0 {
		t.Fatalf("maxLen = %d", maxLen)
	}
	return plans, sets, maxLen
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
	plans, sets, maxLen := planAndSample(t, s, model)
	if maxLen != 1 {
		t.Fatalf("maxLen = %d, want 1 (one closed-form row per shard)", maxLen)
	}
	xs, _ := drain(newShardCandidates(model, plans, sets, maxLen, limit, 5, 0))
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
	for i := range plans {
		plans[i].shard.Scatter(want, sets[i].Samples[0].X)
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
	again, _ := drain(newShardCandidates(model, plans, sets, maxLen, limit, 5, 0))
	for k := range xs {
		if bitKey(xs[k]) != bitKey(again[k]) {
			t.Fatalf("candidate %d differs between identical streams: %s vs %s", k, bitKey(xs[k]), bitKey(again[k]))
		}
	}
	other, _ := drain(newShardCandidates(model, plans, sets, maxLen, limit, 6, 0))
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
	s := NewSolver(&Options{Seed: 3, Portfolio: Off})
	plans, sets, maxLen := planAndSample(t, s, model)
	xs, es := drain(newShardCandidates(model, plans, sets, maxLen, 16, 3, 0))
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
	plans, sets, maxLen := planAndSample(t, s, model)
	xs, _ := drain(newShardCandidates(model, plans, sets, maxLen, 16, 2, 0))
	if len(xs) != 4 {
		t.Errorf("got %d candidates over 2 free variables, want 4", len(xs))
	}
	model = qubo.New(3)
	model.AddLinear(0, -1)
	model.AddLinear(1, 1)
	model.AddQuadratic(1, 2, 1)
	model.AddLinear(2, 1)
	plans, sets, maxLen = planAndSample(t, s, model)
	xs, _ = drain(newShardCandidates(model, plans, sets, maxLen, 16, 2, 0))
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
