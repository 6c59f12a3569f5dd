package qsmt

import (
	"errors"
	"testing"

	"qsmt/internal/anneal"
	"qsmt/internal/core"
	"qsmt/internal/qubo"
	"qsmt/internal/strtheory"
)

func TestPipelineTable1Row1(t *testing.T) {
	// Table 1 row 1: reverse "hello" and replace 'e' with 'a' → "ollah".
	s := testSolver(101)
	p := NewPipeline(Equality("hello")).Reverse().Replace('e', 'a')
	res, err := s.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != "ollah" {
		t.Errorf("output = %q, want ollah", res.Output)
	}
	if len(res.Stages) != 3 {
		t.Fatalf("stages = %d", len(res.Stages))
	}
	wantStages := []string{"hello", "olleh", "ollah"}
	for i, w := range wantStages {
		if res.Stages[i].Output != w {
			t.Errorf("stage %d output = %q, want %q", i, res.Stages[i].Output, w)
		}
	}
}

func TestPipelineTable1Row4(t *testing.T) {
	// Table 1 row 4: concatenate "hello" and " world", replace all 'l'
	// with 'x' → "hexxo worxd".
	s := testSolver(102)
	p := NewPipeline(Concat("hello", " world")).ReplaceAll('l', 'x')
	res, err := s.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != "hexxo worxd" {
		t.Errorf("output = %q, want hexxo worxd", res.Output)
	}
}

func TestPipelineAppendPrepend(t *testing.T) {
	s := testSolver(103)
	p := NewPipeline(Equality("b")).Append("c").Prepend("a")
	res, err := s.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != "abc" {
		t.Errorf("output = %q", res.Output)
	}
}

func TestPipelineGeneratorCanBeStructural(t *testing.T) {
	// A palindrome generator feeding a reversal must be a fixed point.
	s := testSolver(104)
	p := NewPipeline(Palindrome(4)).Reverse()
	res, err := s.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if !strtheory.IsPalindrome(res.Output) {
		t.Errorf("reversed palindrome %q is not a palindrome", res.Output)
	}
	if res.Stages[0].Output != res.Stages[1].Output {
		t.Errorf("reversing palindrome %q gave %q", res.Stages[0].Output, res.Stages[1].Output)
	}
}

func TestPipelineThenCustomStage(t *testing.T) {
	s := testSolver(105)
	p := NewPipeline(Equality("ab")).Then("double", func(in string) Constraint {
		return Concat(in, in)
	})
	res, err := s.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != "abab" {
		t.Errorf("output = %q", res.Output)
	}
}

func TestPipelineLen(t *testing.T) {
	p := NewPipeline(Equality("x")).Reverse().Append("y")
	if p.Len() != 3 {
		t.Errorf("Len = %d", p.Len())
	}
}

func TestPipelineNilGenerator(t *testing.T) {
	s := testSolver(106)
	if _, err := s.Run(nil); err == nil {
		t.Error("nil pipeline accepted")
	}
	if _, err := s.Run(&Pipeline{}); err == nil {
		t.Error("generator-less pipeline accepted")
	}
}

func TestPipelineRejectsIndexGenerator(t *testing.T) {
	s := testSolver(107)
	p := NewPipeline(Includes("hello", "ll"))
	if _, err := s.Run(p); err == nil {
		t.Error("index-witness generator accepted")
	}
}

func TestPipelineStageFailurePropagates(t *testing.T) {
	s := testSolver(108)
	p := NewPipeline(Equality("ab")).Then("bad", func(in string) Constraint {
		return SubstringMatch("way too long", 3) // unsatisfiable
	})
	_, err := s.Run(p)
	if err == nil {
		t.Fatal("expected stage failure")
	}
	if !errors.Is(err, ErrUnsatisfiable) {
		t.Errorf("err = %v, want wrapped ErrUnsatisfiable", err)
	}
}

// erroringSampler exercises the sampler-error path of the solver.
type erroringSampler struct{}

func (erroringSampler) Sample(*qubo.Compiled) (*anneal.SampleSet, error) {
	return nil, errors.New("hardware offline")
}

func TestSolverSamplerErrorPropagates(t *testing.T) {
	s := NewSolver(&Options{Sampler: erroringSampler{}})
	if _, err := s.Solve(Equality("a")); err == nil {
		t.Fatal("sampler error swallowed")
	}
}

// weakSampler returns only a wrong, fixed sample, forcing retries to
// exhaust and checking ErrNoModel is reported.
type weakSampler struct{ calls int }

func (w *weakSampler) Sample(c *qubo.Compiled) (*anneal.SampleSet, error) {
	w.calls++
	x := make([]qubo.Bit, c.N) // all zeros decodes to NULs, fails Check
	return &anneal.SampleSet{Samples: []anneal.Sample{{X: x, Energy: c.Energy(x), Occurrences: 1}}}, nil
}

func TestSolverExhaustsRetriesToErrNoModel(t *testing.T) {
	// AvoidChars survives presolve untouched (an Equality would be
	// solved outright), so the sampler's bad output reaches Check.
	ws := &weakSampler{}
	s := NewSolver(&Options{Sampler: ws, MaxAttempts: 3})
	_, err := s.Solve(AvoidChars([]byte("tt"), 6))
	if !errors.Is(err, ErrNoModel) {
		t.Fatalf("err = %v, want ErrNoModel", err)
	}
	if ws.calls != 3 {
		t.Errorf("sampler called %d times, want 3", ws.calls)
	}
}

func TestSolverChecksMultipleCandidates(t *testing.T) {
	// A sampler whose best sample is wrong but whose second sample is
	// right: the solver must walk the candidate list.
	target := "a"
	c := &core.Equality{Target: target}
	m, err := c.BuildModel()
	if err != nil {
		t.Fatal(err)
	}
	wrong := make([]qubo.Bit, m.N())
	rightStr := "a"
	right := make([]qubo.Bit, 0, m.N())
	for i := 0; i < len(rightStr); i++ {
		for b := 0; b < 7; b++ {
			right = append(right, qubo.Bit((rightStr[i]>>(6-b))&1))
		}
	}
	fixed := &fixedSampler{samples: []anneal.Sample{
		{X: wrong, Energy: -100, Occurrences: 1}, // lies about its energy; still checked first
		{X: right, Energy: -3, Occurrences: 1},
	}}
	s := NewSolver(&Options{Sampler: fixed})
	got, err := s.SolveString(c)
	if err != nil {
		t.Fatal(err)
	}
	if got != target {
		t.Errorf("got %q", got)
	}
}

type fixedSampler struct{ samples []anneal.Sample }

func (f *fixedSampler) Sample(*qubo.Compiled) (*anneal.SampleSet, error) {
	return &anneal.SampleSet{Samples: f.samples}, nil
}
