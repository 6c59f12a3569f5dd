package qsmt

import (
	"strings"
	"testing"

	"qsmt/internal/anneal"
	"qsmt/internal/embed"
)

func TestSolvePrefixSuffixCharAt(t *testing.T) {
	s := testSolver(201)
	got, err := s.SolveString(PrefixOf("ab", 5))
	if err != nil || !strings.HasPrefix(got, "ab") || len(got) != 5 {
		t.Errorf("PrefixOf = %q, %v", got, err)
	}
	got, err = s.SolveString(SuffixOf("yz", 5))
	if err != nil || !strings.HasSuffix(got, "yz") || len(got) != 5 {
		t.Errorf("SuffixOf = %q, %v", got, err)
	}
	got, err = s.SolveString(CharAt('q', 2, 5))
	if err != nil || len(got) != 5 || got[2] != 'q' {
		t.Errorf("CharAt = %q, %v", got, err)
	}
}

func TestSolveCaseTransforms(t *testing.T) {
	s := testSolver(202)
	got, err := s.SolveString(ToUpper("go1!"))
	if err != nil || got != "GO1!" {
		t.Errorf("ToUpper = %q, %v", got, err)
	}
	got, err = s.SolveString(ToLower("GO1!"))
	if err != nil || got != "go1!" {
		t.Errorf("ToLower = %q, %v", got, err)
	}
}

func TestSolveConjunction(t *testing.T) {
	s := testSolver(203)
	got, err := s.SolveString(And(
		PrefixOf("a", 5),
		SuffixOf("z", 5),
		CharAt('m', 2, 5),
	))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 || got[0] != 'a' || got[4] != 'z' || got[2] != 'm' {
		t.Errorf("conjunction witness = %q", got)
	}
}

func TestSolveAnyString(t *testing.T) {
	s := testSolver(204)
	got, err := s.SolveString(AnyString(7))
	if err != nil || len(got) != 7 {
		t.Fatalf("AnyString = %q, %v", got, err)
	}
	for i := 0; i < len(got); i++ {
		if got[i] < 0x20 || got[i] > 0x7e {
			t.Errorf("AnyString[%d] = %#x not printable", i, got[i])
		}
	}
}

func TestSolveThroughChimeraTopology(t *testing.T) {
	// End to end through the hardware-embedding path: equality on a
	// simulated Chimera QPU.
	s := NewSolver(&Options{
		Sampler: &embed.EmbeddedSampler{
			Hardware: embed.Chimera(2, 2, 4),
			Base:     &anneal.SimulatedAnnealer{Reads: 24, Sweeps: 600, Seed: 9},
		},
	})
	got, err := s.SolveString(Equality("hi"))
	if err != nil {
		t.Fatal(err)
	}
	if got != "hi" {
		t.Errorf("embedded equality = %q", got)
	}
}

func TestSolveWithReadoutNoiseRetries(t *testing.T) {
	// The verify-retry loop must survive a noisy sampler: with modest
	// noise some reads are corrupted, but decoding+checking filters them.
	s := NewSolver(&Options{
		Sampler: &anneal.NoisySampler{
			Base:     &anneal.SimulatedAnnealer{Reads: 48, Sweeps: 600, Seed: 10},
			FlipProb: 0.01,
			Seed:     11,
		},
		MaxAttempts: 6,
	})
	got, err := s.SolveString(Equality("ok"))
	if err != nil {
		t.Fatal(err)
	}
	if got != "ok" {
		t.Errorf("noisy equality = %q", got)
	}
}

func TestConjunctionUnsatReportsNoModel(t *testing.T) {
	s := testSolver(205)
	_, err := s.Solve(And(Equality("aa"), Equality("bb")))
	if err == nil {
		t.Fatal("conflicting conjunction solved")
	}
}

func TestPipelineWithExtensionGenerators(t *testing.T) {
	s := testSolver(206)
	// Generate an uppercase transform, then reverse it.
	res, err := s.Run(NewPipeline(ToUpper("abc")).Reverse())
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != "CBA" {
		t.Errorf("output = %q", res.Output)
	}
}

func TestEnumerateDistinctPalindromes(t *testing.T) {
	s := testSolver(401)
	ws, err := s.Enumerate(Palindrome(6), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) < 2 {
		t.Fatalf("only %d distinct palindromes", len(ws))
	}
	seen := map[string]bool{}
	for _, w := range ws {
		if seen[w.Str] {
			t.Errorf("duplicate witness %q", w.Str)
		}
		seen[w.Str] = true
		if err := Palindrome(6).Check(w); err != nil {
			t.Errorf("witness %q fails: %v", w.Str, err)
		}
	}
}

func TestEnumerateUniqueGroundState(t *testing.T) {
	// Equality has one model; Enumerate must return exactly it.
	s := testSolver(402)
	ws, err := s.Enumerate(Equality("one"), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 1 || ws[0].Str != "one" {
		t.Errorf("witnesses = %v", ws)
	}
}

func TestEnumerateUnsat(t *testing.T) {
	s := testSolver(403)
	if _, err := s.Enumerate(SubstringMatch("toolong", 2), 3); err == nil {
		t.Error("unsat enumeration succeeded")
	}
}

func TestEnumerateIndexWitness(t *testing.T) {
	s := testSolver(404)
	ws, err := s.Enumerate(Includes("hello", "ll"), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 1 || ws[0].Index != 2 {
		t.Errorf("witnesses = %v", ws)
	}
}

func TestSolvePeriodic(t *testing.T) {
	s := testSolver(501)
	got, err := s.SolveString(Periodic(3, 9))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 9 {
		t.Fatalf("len = %d", len(got))
	}
	for i := 0; i+3 < len(got); i++ {
		if got[i] != got[i+3] {
			t.Errorf("witness %q not period-3", got)
		}
	}
}
