package qsmt

import (
	"context"
	"fmt"
	"testing"

	"qsmt/internal/anneal"
	"qsmt/internal/obs"
	"qsmt/internal/qubo"
)

// These tests audit the compile cache at the one boundary where entry
// points compile different models for the same constraint: Enumerate
// and EnumerateBatch compile the raw model (enumeration runs without
// presolve), Solve and SolveBatch the presolved one. A Compiled of one
// side must never be served to the other. The cache key is the model's
// canonical content fingerprint, and presolve rewrites the model's
// content before compilation, so the two sides key under different
// fingerprints whenever presolve changed anything — and when it changed
// nothing, sharing the entry is exactly correct. The tests pin both
// halves of that argument: results identical to cache-free references,
// and zero cache hits across the boundary on models presolve
// demonstrably reduces.

func auditSolver(cache *qubo.Cache) *Solver {
	return NewSolver(&Options{
		Sampler:      &anneal.SimulatedAnnealer{Reads: 32, Sweeps: 800, Seed: 9},
		CompileCache: cache,
	})
}

func TestCacheNeverServesPresolvedToPresolveOff(t *testing.T) {
	c := Palindrome(8)

	// Cache-free reference for the raw-model side.
	ref, err := auditSolver(nil).Enumerate(c, 3)
	if err != nil {
		t.Fatal(err)
	}

	cache := qubo.NewCache(64)
	res, err := auditSolver(cache).Solve(c)
	if err != nil {
		t.Fatal(err)
	}
	// The audit only bites when presolve actually rewrote the model; the
	// palindrome's per-bit equality gadget guarantees it does.
	if res.Stats.PresolveEliminated == 0 {
		t.Fatal("presolve eliminated nothing; pick a reducing model for this audit")
	}

	before := cache.Stats().Hits
	got, err := auditSolver(cache).Enumerate(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	if hits := cache.Stats().Hits - before; hits != 0 {
		t.Errorf("Enumerate took %d cache hits from a cache warmed by the presolved Solve", hits)
	}
	if fmt.Sprint(got) != fmt.Sprint(ref) {
		t.Errorf("shared cache changed Enumerate: got %v, want %v", got, ref)
	}
}

func TestCacheNeverServesRawToPresolveOn(t *testing.T) {
	c := Palindrome(8)

	refRes, err := auditSolver(nil).Solve(c)
	if err != nil {
		t.Fatal(err)
	}

	cache := qubo.NewCache(64)
	if _, err := auditSolver(cache).Enumerate(c, 3); err != nil {
		t.Fatal(err)
	}
	res, err := auditSolver(cache).Solve(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CacheHits != 0 {
		t.Errorf("presolved Solve took %d cache hits from a cache warmed by Enumerate", res.Stats.CacheHits)
	}
	if res.Witness.Str != refRes.Witness.Str || res.Energy != refRes.Energy {
		t.Errorf("shared cache changed Solve: got (%q, %g), want (%q, %g)",
			res.Witness.Str, res.Energy, refRes.Witness.Str, refRes.Energy)
	}
}

func TestCachePresolveIsolationThroughSolveBatch(t *testing.T) {
	// Presolve reduces the first three and leaves AvoidChars whole, whose
	// identical 12-variable shards hit each other within a SolveBatch.
	cs := []Constraint{Palindrome(8), SubstringMatch("cat", 4), Equality("hello"), AvoidChars([]byte("tt"), 4)}
	ctx := context.Background()
	solveHits := func(br *BatchResult) int {
		hits := 0
		for _, it := range br.Items {
			if it.Err == nil {
				hits += it.Result.Stats.CacheHits
			}
		}
		return hits
	}

	// Cache-free references of both sides, and the SolveBatch's own
	// within-batch hits on a fresh cache.
	refSolve, err := auditSolver(nil).SolveBatch(ctx, cs)
	if err != nil {
		t.Fatal(err)
	}
	refEnum, err := auditSolver(nil).EnumerateBatch(ctx, cs, 2)
	if err != nil {
		t.Fatal(err)
	}
	own, err := auditSolver(qubo.NewCache(256)).SolveBatch(ctx, cs)
	if err != nil {
		t.Fatal(err)
	}

	// Presolved entries first, then the raw side.
	cache := qubo.NewCache(256)
	if _, err := auditSolver(cache).SolveBatch(ctx, cs); err != nil {
		t.Fatal(err)
	}
	before := cache.Stats().Hits
	gotEnum, err := auditSolver(cache).EnumerateBatch(ctx, cs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if hits := cache.Stats().Hits - before; hits != 0 {
		t.Errorf("EnumerateBatch took %d cache hits from a cache warmed by SolveBatch", hits)
	}

	// Raw entries first, then the presolved side.
	cache = qubo.NewCache(256)
	if _, err := auditSolver(cache).EnumerateBatch(ctx, cs, 2); err != nil {
		t.Fatal(err)
	}
	gotSolve, err := auditSolver(cache).SolveBatch(ctx, cs)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := solveHits(gotSolve), solveHits(own); got != want {
		t.Errorf("SolveBatch after EnumerateBatch took %d cache hits, %d on a fresh cache", got, want)
	}

	for i := range cs {
		g, w := gotSolve.Items[i], refSolve.Items[i]
		if (g.Err == nil) != (w.Err == nil) {
			t.Errorf("solve[%d]: err = %v, want %v", i, g.Err, w.Err)
			continue
		}
		if g.Err == nil && (g.Result.Witness != w.Result.Witness || g.Result.Energy != w.Result.Energy) {
			t.Errorf("solve[%d]: shared cache changed the result: got (%+v, %g), want (%+v, %g)",
				i, g.Result.Witness, g.Result.Energy, w.Result.Witness, w.Result.Energy)
		}
		if fmt.Sprint(gotEnum[i]) != fmt.Sprint(refEnum[i]) {
			t.Errorf("enumerate[%d]: shared cache changed the result: got %v, want %v", i, gotEnum[i], refEnum[i])
		}
	}
	if solveHits(own) == 0 {
		t.Error("SolveBatch compiled no shared shard; the audit needs the cache in use")
	}
}

// A SolveBatch stores its exact entries' enumerated sets in the cache,
// and only the shard tier plan reads them back. The model is a
// frustrated triangle that presolve cannot reduce and that carries no
// offset, so the batch's one exact entry, the custom-sampler Solve's
// whole model and Enumerate's raw model all key under one fingerprint.
// Both must still sample with their own sampler: their results and
// their reads match their cache-free references (a stored set would
// bring its six enumerated states instead of the annealer's 32 reads).
func TestStoredExactSetsServeOnlyTheTierPlan(t *testing.T) {
	c := &stubConstraint{
		name: "triangle",
		vars: 3,
		model: func() (*qubo.Model, error) {
			m := qubo.New(3)
			for i := 0; i < 3; i++ {
				m.AddLinear(i, -1)
			}
			m.AddQuadratic(0, 1, 1)
			m.AddQuadratic(1, 2, 1)
			m.AddQuadratic(0, 2, 1)
			return m, nil
		},
		decode: func(x []qubo.Bit) (Witness, error) { return Witness{Kind: WitnessString, Str: bitKey(x)}, nil },
	}
	ctx := context.Background()
	solver := func(cache *qubo.Cache) (*Solver, *SolverMetrics) {
		m := NewSolverMetrics(obs.NewRegistry())
		s := auditSolver(cache)
		s.opts.Metrics = m
		return s, m
	}
	ref, _ := solver(nil)
	refRes, err := ref.Solve(c)
	if err != nil {
		t.Fatal(err)
	}
	refEnum, refMetrics := solver(nil)
	refWs, err := refEnum.Enumerate(c, 3)
	if err != nil {
		t.Fatal(err)
	}

	// The first batch stores the exact set, the second reads it back.
	cache := qubo.NewCache(64)
	warm, _ := solver(cache)
	var st SolveStats
	for range 2 {
		br, err := warm.SolveBatch(ctx, []Constraint{c})
		if err != nil {
			t.Fatal(err)
		}
		if st = br.Items[0].Result.Stats; st.Shards != 1 || st.ExactShards != 1 {
			t.Fatalf("batch planned %d shards, %d exact; the audit needs one exact entry", st.Shards, st.ExactShards)
		}
	}
	if st.Reads != 0 {
		t.Fatalf("the second batch took %d reads; the audit needs a stored exact set", st.Reads)
	}
	s, _ := solver(cache)
	res, err := s.Solve(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CacheHits == 0 {
		t.Fatal("Solve took no cache hit; the audit needs the batch's entry shared")
	}
	if res.Witness != refRes.Witness || res.Energy != refRes.Energy || res.Stats.Reads != refRes.Stats.Reads {
		t.Errorf("stored exact set changed the custom-sampler Solve: got (%+v, %g, %d reads), want (%+v, %g, %d reads)",
			res.Witness, res.Energy, res.Stats.Reads, refRes.Witness, refRes.Energy, refRes.Stats.Reads)
	}
	enum, m := solver(cache)
	ws, err := enum.Enumerate(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ws) != fmt.Sprint(refWs) || m.Reads.Value() != refMetrics.Reads.Value() {
		t.Errorf("stored exact set changed Enumerate: got %v in %v reads, want %v in %v reads",
			ws, m.Reads.Value(), refWs, refMetrics.Reads.Value())
	}
}
