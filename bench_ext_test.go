package qsmt

// Extension benchmarks: the ablations DESIGN.md indexes as Ext-D/E —
// sampler-zoo comparison, hardware-topology (Chimera minor-embedding)
// overhead, and sequential-pipeline vs merged-conjunction composition.

import (
	"testing"

	"qsmt/internal/anneal"
	"qsmt/internal/baseline"
	"qsmt/internal/core"
	"qsmt/internal/embed"
)

// ---- Ext-D1: sampler zoo on the same constraint ----

func benchSamplerOn(b *testing.B, s Sampler, c Constraint) {
	b.Helper()
	m, err := c.BuildModel()
	if err != nil {
		b.Fatal(err)
	}
	compiled := m.Compile()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Sample(compiled); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSamplers_SimulatedAnnealing(b *testing.B) {
	benchSamplerOn(b, &anneal.SimulatedAnnealer{Reads: 64, Sweeps: 1000, Seed: 1}, Palindrome(6))
}

func BenchmarkSamplers_Tabu(b *testing.B) {
	benchSamplerOn(b, &anneal.TabuSampler{Reads: 64, Seed: 1}, Palindrome(6))
}

func BenchmarkSamplers_ParallelTempering(b *testing.B) {
	benchSamplerOn(b, &anneal.ParallelTempering{Replicas: 8, Sweeps: 250, Reads: 8, Seed: 1}, Palindrome(6))
}

func BenchmarkSamplers_GreedyRestarts(b *testing.B) {
	benchSamplerOn(b, &anneal.GreedySampler{Reads: 64, Seed: 1}, Palindrome(6))
}

// ---- Ext-D2: native vs Chimera-embedded ----

func BenchmarkTopology_Native(b *testing.B) {
	benchSamplerOn(b, &anneal.SimulatedAnnealer{Reads: 32, Sweeps: 800, Seed: 1}, Equality("hi"))
}

func BenchmarkTopology_ChimeraEmbedded(b *testing.B) {
	es := &embed.EmbeddedSampler{
		Hardware: embed.Chimera(4, 4, 4),
		Base:     &anneal.SimulatedAnnealer{Reads: 32, Sweeps: 800, Seed: 1},
	}
	benchSamplerOn(b, es, Equality("hi"))
}

func BenchmarkTopology_CliqueEmbeddedIncludes(b *testing.B) {
	c := Includes("hello, hello", "ell")
	clique, err := embed.CliqueOnChimera(c.NumVars(), 4, 4)
	if err != nil {
		b.Fatal(err)
	}
	es := &embed.EmbeddedSampler{
		Hardware:  embed.Chimera(4, 4, 4),
		Embedding: clique,
		Base:      &anneal.SimulatedAnnealer{Reads: 32, Sweeps: 800, Seed: 1},
	}
	benchSamplerOn(b, es, c)
}

func BenchmarkTopology_EmbeddingSearch(b *testing.B) {
	// Cost of the greedy minor-embedding search itself.
	c := &core.Regex{Pattern: "a[bc]+", Length: 3}
	m, err := c.BuildModel()
	if err != nil {
		b.Fatal(err)
	}
	logical := embed.InteractionGraph(m.Compile())
	hw := embed.Chimera(4, 4, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&embed.Embedder{Seed: int64(i + 1)}).Find(logical, hw); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ext-E: composition modes ----

func BenchmarkComposition_MergedConjunction(b *testing.B) {
	s := benchSolver(9)
	c := And(PrefixOf("ab", 6), SuffixOf("yz", 6))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkComposition_SequentialPipeline(b *testing.B) {
	// The sequential form of Table 1 row 1 for comparison: two solves.
	s := benchSolver(10)
	p := NewPipeline(Reverse("hello")).Replace('e', 'a')
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(p); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- noise robustness ----

func BenchmarkNoise_VerifyRetryLoop(b *testing.B) {
	s := NewSolver(&Options{
		Sampler: &anneal.NoisySampler{
			Base:     &anneal.SimulatedAnnealer{Reads: 48, Sweeps: 600, Seed: 2},
			FlipProb: 0.01,
			Seed:     3,
		},
		MaxAttempts: 6,
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.SolveString(Equality("ok")); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- classical CP solver vs annealer on conjunctions ----

func BenchmarkBaseline_CPConjunction(b *testing.B) {
	cp := &baseline.CPSolver{}
	c := &core.Conjunction{Members: []core.Constraint{
		&core.PrefixOf{Prefix: "ab", Length: 6},
		&core.SuffixOf{Suffix: "yz", Length: 6},
		&core.CharAt{C: 'm', Index: 2, Length: 6},
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cp.Solve(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaseline_AnnealerConjunction(b *testing.B) {
	s := benchSolver(11)
	c := And(PrefixOf("ab", 6), SuffixOf("yz", 6), CharAt('m', 2, 6))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(c); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- quadratization cost ----

func BenchmarkSubstrate_QuadratizeAvoidChars(b *testing.B) {
	c := &core.AvoidChars{Chars: []byte("aeiou"), N: 8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.BuildModel(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConstraint_Periodic(b *testing.B) {
	s := benchSolver(12)
	c := Periodic(3, 9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolver_Enumerate(b *testing.B) {
	s := benchSolver(13)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Enumerate(Palindrome(5), 4); err != nil {
			b.Fatal(err)
		}
	}
}
