package qsmt

import (
	"context"
	"errors"
	"strings"
	"testing"

	"qsmt/internal/anneal"
	"qsmt/internal/obs"
	"qsmt/internal/qubo"
)

// The acceptance property for sharding: a decomposable model must solve
// as ≥ 2 independent shards at the ground energy the whole-model path
// reaches. AvoidChars("tt", 6) survives presolve untouched and falls
// apart into six coupled 12-variable components, one per character, so
// the default Solve enumerates each exactly; a custom sampler keeps the
// whole model.
func TestShardedMatchesWholeModel(t *testing.T) {
	c := AvoidChars([]byte("tt"), 6)

	whole := NewSolver(&Options{Seed: 5, Sampler: &anneal.SimulatedAnnealer{Reads: 64, Sweeps: 1000, Seed: 5}})
	wres, err := whole.Solve(c)
	if err != nil {
		t.Fatalf("whole-model solve: %v", err)
	}
	if wres.Shards != 1 || wres.Stats.Shards != 0 {
		t.Fatalf("whole-model result claims sharding: Shards=%d Stats.Shards=%d", wres.Shards, wres.Stats.Shards)
	}
	if wres.Stats.PresolveEliminated != 0 {
		t.Fatalf("presolve eliminated %d variables; the whole-model reference must be unreduced", wres.Stats.PresolveEliminated)
	}

	sharded := NewSolver(&Options{Seed: 5})
	sres, err := sharded.Solve(c)
	if err != nil {
		t.Fatalf("sharded solve: %v", err)
	}
	if sres.Shards != 6 {
		t.Fatalf("AvoidChars solved as %d shards, want 6", sres.Shards)
	}
	if err := c.Check(sres.Witness); err != nil {
		t.Fatalf("sharded witness %q fails Check: %v", sres.Witness.Str, err)
	}
	// The ground energies must agree: energy is additive over
	// components, so the merged energy is an exact whole-model energy.
	if diff := sres.Energy - wres.Energy; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("sharded energy %g != whole-model energy %g", sres.Energy, wres.Energy)
	}
	if sres.Stats.ExactShards != 6 {
		t.Errorf("%d of 6 twelve-variable shards solved exactly", sres.Stats.ExactShards)
	}
	if sres.Stats.ShardFallback {
		t.Error("sharded solve reported a whole-model fallback")
	}
}

// A connected interaction graph must fall back to whole-model solving
// and say so. Includes one-hot-couples all its position selectors, so
// its graph is connected.
func TestShardFallbackOnConnectedModel(t *testing.T) {
	s := NewSolver(&Options{Seed: 3})
	res, err := s.Solve(Includes("abcabc", "ca"))
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if !res.Stats.ShardFallback {
		t.Error("connected model did not report ShardFallback")
	}
	if res.Shards != 1 {
		t.Errorf("connected model solved as %d shards, want 1", res.Shards)
	}
	if res.Witness.Index != 2 {
		t.Errorf("witness index = %d, want 2", res.Witness.Index)
	}
}

// Sharded solving of a pure generator: every palindrome mirror pair is
// its own component, all small enough for exact enumeration, and the
// merged witness must still verify.
func TestShardedPalindrome(t *testing.T) {
	s := NewSolver(&Options{Seed: 11})
	res, err := s.Solve(Palindrome(6))
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if res.Shards < 2 {
		t.Fatalf("palindrome solved as %d shards, want >= 2", res.Shards)
	}
	w := res.Witness.Str
	if len(w) != 6 {
		t.Fatalf("witness %q has length %d", w, len(w))
	}
	for i := 0; i < 3; i++ {
		if w[i] != w[5-i] {
			t.Fatalf("witness %q is not a palindrome", w)
		}
	}
}

func TestSolveBatchMixed(t *testing.T) {
	cs := []Constraint{
		Equality("hello"),
		Palindrome(4),
		And(Equality("noon"), Palindrome(4)),
		PrefixOf("ab", 4),
		SuffixOf("yz", 4),
		Reverse("qsmt"),
		Periodic(2, 6),
	}
	reg := obs.NewRegistry()
	s := NewSolver(&Options{
		Seed:         9,
		Metrics:      NewSolverMetrics(reg),
		CompileCache: qubo.NewCache(64),
		BatchWorkers: 4,
	})
	br, err := s.SolveBatch(context.Background(), cs)
	if err != nil {
		t.Fatalf("SolveBatch: %v", err)
	}
	if br.Solved != len(cs) || br.Failed != 0 {
		for i, it := range br.Items {
			if it.Err != nil {
				t.Errorf("item %d (%s): %v", i, cs[i].Name(), it.Err)
			}
		}
		t.Fatalf("solved %d / failed %d of %d", br.Solved, br.Failed, len(cs))
	}
	if len(br.Items) != len(cs) {
		t.Fatalf("got %d items for %d constraints", len(br.Items), len(cs))
	}
	for i, it := range br.Items {
		if it.Result == nil {
			t.Fatalf("item %d has neither result nor error", i)
		}
		if err := cs[i].Check(it.Result.Witness); err != nil {
			t.Errorf("item %d witness fails check: %v", i, err)
		}
	}
	if br.Shards < len(cs) {
		t.Errorf("total shards %d < %d items", br.Shards, len(cs))
	}
	if got := br.Items[0].Result.Witness.Str; got != "hello" {
		t.Errorf("equality witness = %q", got)
	}
}

// failingConstraint errors at BuildModel: batch items must fail
// individually without poisoning their neighbors.
type failingConstraint struct{}

func (failingConstraint) Name() string { return "failing" }
func (failingConstraint) NumVars() int { return 0 }
func (failingConstraint) BuildModel() (*qubo.Model, error) {
	return nil, errors.New("broken constraint")
}
func (failingConstraint) Decode([]qubo.Bit) (Witness, error) {
	return Witness{}, errors.New("unreachable")
}
func (failingConstraint) Check(Witness) error { return errors.New("unreachable") }

func TestSolveBatchPartialFailure(t *testing.T) {
	cs := []Constraint{
		Equality("ok"),
		failingConstraint{},
		Palindrome(2),
	}
	s := NewSolver(&Options{Seed: 2})
	br, err := s.SolveBatch(context.Background(), cs)
	if err != nil {
		t.Fatalf("SolveBatch returned batch-level error: %v", err)
	}
	if br.Solved != 2 || br.Failed != 1 {
		t.Fatalf("solved %d / failed %d, want 2 / 1", br.Solved, br.Failed)
	}
	if br.Items[1].Err == nil || br.Items[1].Result != nil {
		t.Fatalf("failing item = %+v, want error only", br.Items[1])
	}
	if br.Items[0].Err != nil || br.Items[2].Err != nil {
		t.Fatal("healthy items were poisoned by the failing one")
	}
}

func TestSolveBatchEmpty(t *testing.T) {
	s := NewSolver(nil)
	br, err := s.SolveBatch(context.Background(), nil)
	if err != nil {
		t.Fatalf("SolveBatch(nil): %v", err)
	}
	if len(br.Items) != 0 || br.Solved != 0 || br.Failed != 0 {
		t.Fatalf("empty batch result = %+v", br)
	}
}

func TestSolveBatchCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := NewSolver(&Options{Seed: 1})
	br, err := s.SolveBatch(ctx, []Constraint{Palindrome(4), Palindrome(6)})
	if err == nil {
		t.Fatal("cancelled batch returned nil error")
	}
	if br.Failed != 2 {
		t.Fatalf("cancelled batch failed %d of 2", br.Failed)
	}
	for i, it := range br.Items {
		if !errors.Is(it.Err, context.Canceled) {
			t.Errorf("item %d error = %v, want context.Canceled", i, it.Err)
		}
	}
}

// Repeated constraints in one batch must hit the compile cache: every
// AvoidChars("tt", 6) decomposes into six identical 12-variable shards
// that presolve leaves coupled, so after the first compile the rest are
// hits.
func TestSolveBatchCompileCache(t *testing.T) {
	cache := qubo.NewCache(32)
	reg := obs.NewRegistry()
	s := NewSolver(&Options{
		Seed:         7,
		CompileCache: cache,
		Metrics:      NewSolverMetrics(reg),
	})
	cs := make([]Constraint, 8)
	for i := range cs {
		cs[i] = AvoidChars([]byte("tt"), 6)
	}
	br, err := s.SolveBatch(context.Background(), cs)
	if err != nil {
		t.Fatalf("SolveBatch: %v", err)
	}
	if br.Failed != 0 {
		t.Fatalf("%d items failed", br.Failed)
	}
	st := cache.Stats()
	if st.Hits == 0 {
		t.Fatalf("no cache hits across identical constraints: %+v", st)
	}
	if st.Misses == 0 {
		t.Fatalf("no cache misses recorded: %+v", st)
	}
	hits := 0
	for _, it := range br.Items {
		hits += it.Result.Stats.CacheHits
	}
	if hits == 0 {
		t.Error("no per-solve CacheHits recorded in stats")
	}
	// The registry mirror must agree with the cache's own counters.
	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatalf("registry export: %v", err)
	}
	text := sb.String()
	if !strings.Contains(text, "qsmt_cache_hits_total") {
		t.Error("qsmt_cache_hits_total missing from registry export")
	}
	if !strings.Contains(text, "qsmt_batch_shards_total") {
		t.Error("qsmt_batch_shards_total missing from registry export")
	}
}

func TestEnumerateBatch(t *testing.T) {
	cs := []Constraint{Palindrome(2), Palindrome(4)}
	s := NewSolver(&Options{Seed: 13})
	items, err := s.EnumerateBatch(context.Background(), cs, 3)
	if err != nil {
		t.Fatalf("EnumerateBatch: %v", err)
	}
	if len(items) != 2 {
		t.Fatalf("got %d items", len(items))
	}
	for i, it := range items {
		if it.Err != nil {
			t.Fatalf("item %d: %v", i, it.Err)
		}
		if len(it.Witnesses) == 0 {
			t.Fatalf("item %d returned no witnesses", i)
		}
		seen := map[string]bool{}
		for _, w := range it.Witnesses {
			if err := cs[i].Check(w); err != nil {
				t.Errorf("item %d witness %q fails check: %v", i, w.Str, err)
			}
			if seen[w.Str] {
				t.Errorf("item %d witness %q duplicated", i, w.Str)
			}
			seen[w.Str] = true
		}
	}
}

// Coupler-free shards are solved closed-form; free (zero-coefficient)
// variables must vary across attempts so the degenerate manifold is
// explored rather than pinned to one corner.
func TestSolveLinearShard(t *testing.T) {
	m := qubo.New(4)
	m.AddLinear(0, -2) // wants 1
	m.AddLinear(1, 3)  // wants 0
	// vars 2, 3 free
	ss := solveLinearShard(m, 1, 0, 0)
	if ss.Len() != 1 {
		t.Fatalf("got %d samples", ss.Len())
	}
	smp := ss.Samples[0]
	if smp.X[0] != 1 || smp.X[1] != 0 {
		t.Fatalf("assignment %v violates linear terms", smp.X)
	}
	if smp.Energy != -2 {
		t.Fatalf("energy = %g, want -2", smp.Energy)
	}
	if got := m.Energy(smp.X); got != -2 {
		t.Fatalf("model disagrees: Energy = %g", got)
	}
	// Distinct (attempt, shard) keys must eventually flip a free bit.
	varied := false
	for attempt := 1; attempt < 32 && !varied; attempt++ {
		other := solveLinearShard(m, 1, attempt, 0).Samples[0]
		if other.X[2] != smp.X[2] || other.X[3] != smp.X[3] {
			varied = true
		}
	}
	if !varied {
		t.Error("free variables never varied across 32 attempts")
	}
}
