package qsmt

import (
	"errors"
	"strings"
	"testing"

	"qsmt/internal/anneal"
	"qsmt/internal/strtheory"
)

func testSolver(seed int64) *Solver {
	// Smaller reads/sweeps than production defaults keep the suite fast;
	// every target here is well within this budget.
	return NewSolver(&Options{
		Sampler: &anneal.SimulatedAnnealer{Reads: 32, Sweeps: 800, Seed: seed},
	})
}

func TestSolveEquality(t *testing.T) {
	s := testSolver(1)
	got, err := s.SolveString(Equality("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if got != "hello" {
		t.Errorf("got %q", got)
	}
}

func TestSolveConcat(t *testing.T) {
	s := testSolver(2)
	got, err := s.SolveString(Concat("hello", " ", "world"))
	if err != nil {
		t.Fatal(err)
	}
	if got != "hello world" {
		t.Errorf("got %q", got)
	}
}

func TestSolveSubstringMatch(t *testing.T) {
	s := testSolver(3)
	got, err := s.SolveString(SubstringMatch("cat", 4))
	if err != nil {
		t.Fatal(err)
	}
	if got != "ccat" { // the paper's §4.3 overwrite result
		t.Errorf("got %q, want ccat", got)
	}
}

func TestSolveIncludes(t *testing.T) {
	s := testSolver(4)
	idx, err := s.SolveIndex(Includes("hello world", "o w"))
	if err != nil {
		t.Fatal(err)
	}
	if idx != 4 {
		t.Errorf("index = %d, want 4", idx)
	}
}

func TestSolveIncludesFirstOfMany(t *testing.T) {
	s := testSolver(5)
	idx, err := s.SolveIndex(Includes("abcabcabc", "abc"))
	if err != nil {
		t.Fatal(err)
	}
	if idx != 0 {
		t.Errorf("index = %d, want 0", idx)
	}
}

func TestSolveIndexOf(t *testing.T) {
	s := testSolver(6)
	got, err := s.SolveString(IndexOf("hi", 2, 6))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 || got[2:4] != "hi" {
		t.Errorf("got %q", got)
	}
}

func TestSolveLengthGadget(t *testing.T) {
	s := testSolver(7)
	res, err := s.Solve(Length(3, 5))
	if err != nil {
		t.Fatal(err)
	}
	want := string([]byte{0x7f, 0x7f, 0x7f, 0, 0})
	if res.Witness.Str != want {
		t.Errorf("got %q, want unary pattern %q", res.Witness.Str, want)
	}
}

func TestSolveReplaceAll(t *testing.T) {
	s := testSolver(8)
	got, err := s.SolveString(ReplaceAll("hello world", 'l', 'x'))
	if err != nil {
		t.Fatal(err)
	}
	if got != "hexxo worxd" { // Table 1 row 4
		t.Errorf("got %q, want hexxo worxd", got)
	}
}

func TestSolveReplace(t *testing.T) {
	s := testSolver(9)
	got, err := s.SolveString(Replace("hello", 'l', 'L'))
	if err != nil {
		t.Fatal(err)
	}
	if got != "heLlo" {
		t.Errorf("got %q", got)
	}
}

func TestSolveReverse(t *testing.T) {
	s := testSolver(10)
	got, err := s.SolveString(Reverse("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if got != "olleh" {
		t.Errorf("got %q", got)
	}
}

func TestSolvePalindrome(t *testing.T) {
	s := testSolver(11)
	got, err := s.SolveString(Palindrome(6))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 || !strtheory.IsPalindrome(got) {
		t.Errorf("got %q, not a 6-palindrome", got)
	}
	// The default palindrome constraint biases into the printable range.
	for i := 0; i < len(got); i++ {
		if got[i] < 0x20 {
			t.Errorf("palindrome has control byte %#x", got[i])
		}
	}
}

func TestSolveRegex(t *testing.T) {
	s := testSolver(12)
	got, err := s.SolveString(Regex("a[bc]+", 5))
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 'a' {
		t.Errorf("got %q", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] != 'b' && got[i] != 'c' {
			t.Errorf("position %d = %q", i, got[i:i+1])
		}
	}
}

func TestSolveUnsatisfiableConstruction(t *testing.T) {
	s := testSolver(13)
	_, err := s.Solve(SubstringMatch("toolong", 3))
	if !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("err = %v, want ErrUnsatisfiable", err)
	}
}

func TestSolveUnsatisfiableAtCheckTime(t *testing.T) {
	// Includes with an absent needle builds fine but can never verify.
	s := testSolver(14)
	_, err := s.Solve(Includes("hello", "xyz"))
	if err == nil {
		t.Fatal("expected failure")
	}
	if !errors.Is(err, ErrUnsatisfiable) && !errors.Is(err, ErrNoModel) {
		t.Fatalf("err = %v, want ErrUnsatisfiable or ErrNoModel", err)
	}
}

func TestSolveResultMetadata(t *testing.T) {
	s := testSolver(15)
	res, err := s.Solve(Equality("ab"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Vars != 14 {
		t.Errorf("Vars = %d, want 14", res.Vars)
	}
	if res.Attempts < 1 {
		t.Errorf("Attempts = %d", res.Attempts)
	}
	if res.Elapsed <= 0 {
		t.Errorf("Elapsed = %v", res.Elapsed)
	}
	// Energy of the unique equality ground state: −(one-bits).
	if res.Energy >= 0 {
		t.Errorf("Energy = %g, want negative", res.Energy)
	}
}

func TestSolveStringRejectsIndexWitness(t *testing.T) {
	s := testSolver(16)
	if _, err := s.SolveString(Includes("hello", "ll")); err == nil {
		t.Fatal("SolveString accepted an index-witness constraint")
	}
}

func TestSolveIndexRejectsStringWitness(t *testing.T) {
	s := testSolver(17)
	if _, err := s.SolveIndex(Equality("a")); err == nil {
		t.Fatal("SolveIndex accepted a string-witness constraint")
	}
}

func TestSolverWithExactSampler(t *testing.T) {
	s := NewSolver(&Options{Sampler: &anneal.ExactSolver{MaxStates: 16}})
	got, err := s.SolveString(Equality("hey"))
	if err != nil {
		t.Fatal(err)
	}
	if got != "hey" {
		t.Errorf("got %q", got)
	}
}

// The zero Solver{} searches with the same defaults as NewSolver(nil):
// attempts, candidates per attempt and the exact-tier bound are resolved
// where they are read, not only in NewSolver.
func TestZeroValueSolverSolves(t *testing.T) {
	res, err := (&Solver{}).Solve(Palindrome(4))
	if err != nil {
		t.Fatalf("zero Solver: %v", err)
	}
	if err := Palindrome(4).Check(res.Witness); err != nil {
		t.Errorf("zero Solver witness %v: %v", res.Witness, err)
	}
}

func TestSolverWithParallelTempering(t *testing.T) {
	s := NewSolver(&Options{Sampler: &anneal.ParallelTempering{
		Replicas: 6, Sweeps: 300, Reads: 4, Seed: 5,
	}})
	got, err := s.SolveString(Equality("pt"))
	if err != nil {
		t.Fatal(err)
	}
	if got != "pt" {
		t.Errorf("got %q", got)
	}
}

func TestNewSolverDefaults(t *testing.T) {
	s := NewSolver(nil)
	if s.opts.MaxAttempts != 4 || s.opts.Seed != 1 || s.opts.CandidatesPerAttempt != 16 {
		t.Errorf("defaults wrong: %+v", s.opts)
	}
	// Default sampler derives per-attempt seeds.
	s0 := s.samplerFor(0).(*anneal.SimulatedAnnealer)
	s1 := s.samplerFor(1).(*anneal.SimulatedAnnealer)
	if s0.Seed == s1.Seed {
		t.Error("retry attempts share a seed")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a, err := testSolver(42).SolveString(Palindrome(4))
	if err != nil {
		t.Fatal(err)
	}
	b, err := testSolver(42).SolveString(Palindrome(4))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed produced %q and %q", a, b)
	}
	c, err := testSolver(43).SolveString(Palindrome(4))
	if err != nil {
		t.Fatal(err)
	}
	if a == c && !strings.EqualFold("", " ") { // different seeds overwhelmingly differ
		t.Logf("note: seeds 42 and 43 coincided on %q (possible but unlikely)", a)
	}
}
