package qsmt

import (
	"context"
	"fmt"
	"time"

	"qsmt/internal/core"
)

// Pipeline chains string constraints sequentially (§4.12): the witness of
// each stage becomes the input of the next, exactly the paper's
// "reverse 'hello' first, then feed the output into the replace solver".
//
// A pipeline starts from a generator stage (any string-witness
// constraint) and applies transform stages. Build one fluently:
//
//	p := qsmt.NewPipeline(qsmt.Equality("hello")).
//	        Reverse().
//	        ReplaceAll('e', 'a')
//	res, err := solver.Run(p)
type Pipeline struct {
	generator Constraint
	stages    []transform
}

// transform derives the next constraint from the previous stage's output.
type transform struct {
	name string
	make func(input string) Constraint
}

// NewPipeline starts a pipeline from a generator constraint. The
// generator must produce a string witness (every constraint except
// Includes).
func NewPipeline(generator Constraint) *Pipeline {
	return &Pipeline{generator: generator}
}

// Reverse appends a string-reversal stage (§4.9).
func (p *Pipeline) Reverse() *Pipeline {
	return p.add("reverse", func(in string) Constraint {
		return &core.Reverse{Input: in}
	})
}

// Replace appends a replace-first stage (§4.8).
func (p *Pipeline) Replace(x, y byte) *Pipeline {
	return p.add("replace", func(in string) Constraint {
		return &core.Replace{Input: in, X: x, Y: y}
	})
}

// ReplaceAll appends a replace-all stage (§4.7).
func (p *Pipeline) ReplaceAll(x, y byte) *Pipeline {
	return p.add("replace-all", func(in string) Constraint {
		return &core.ReplaceAll{Input: in, X: x, Y: y}
	})
}

// Append appends a concatenation stage gluing s after the running string
// (§4.2).
func (p *Pipeline) Append(s string) *Pipeline {
	return p.add("append", func(in string) Constraint {
		return &core.Concat{Parts: []string{in, s}}
	})
}

// Prepend appends a concatenation stage gluing s before the running
// string (§4.2).
func (p *Pipeline) Prepend(s string) *Pipeline {
	return p.add("prepend", func(in string) Constraint {
		return &core.Concat{Parts: []string{s, in}}
	})
}

// ToUpper appends an uppercasing stage.
func (p *Pipeline) ToUpper() *Pipeline {
	return p.add("toupper", func(in string) Constraint {
		return &core.ToUpper{Input: in}
	})
}

// ToLower appends a lowercasing stage.
func (p *Pipeline) ToLower() *Pipeline {
	return p.add("tolower", func(in string) Constraint {
		return &core.ToLower{Input: in}
	})
}

// Then appends an arbitrary custom stage.
func (p *Pipeline) Then(name string, make func(input string) Constraint) *Pipeline {
	return p.add(name, make)
}

func (p *Pipeline) add(name string, make func(string) Constraint) *Pipeline {
	p.stages = append(p.stages, transform{name: name, make: make})
	return p
}

// Len returns the number of solver invocations the pipeline will make
// (generator + transforms).
func (p *Pipeline) Len() int { return 1 + len(p.stages) }

// Generator returns the pipeline's stage-0 constraint. Single-stage
// pipelines (Len() == 1) are plain constraints in disguise; the smtlib
// interpreter uses this to solve them through an IncrementalSession or
// Optimize.
func (p *Pipeline) Generator() Constraint { return p.generator }

// StageResult records one stage of a pipeline run.
type StageResult struct {
	Name   string
	Output string
	Result *Result
}

// PipelineResult reports a full pipeline run.
type PipelineResult struct {
	Output   string        // final string
	Stages   []StageResult // per-stage outputs, in order
	Attempts int           // sampler invocations summed over stages
	Elapsed  time.Duration // wall-clock time for the whole chain
}

// Run solves a pipeline stage by stage.
func (s *Solver) Run(p *Pipeline) (*PipelineResult, error) {
	return s.RunContext(context.Background(), p)
}

// RunContext solves a pipeline stage by stage under ctx; a deadline
// bounds the whole chain, aborting mid-stage where the sampler allows.
//
// On a mid-chain failure the returned *PipelineResult is still non-nil:
// it carries every stage completed before the failure (Output is then
// the last completed stage's string, empty when the generator itself
// failed), so a caller can report partial progress or resume from the
// last good stage instead of redoing work already paid for.
func (s *Solver) RunContext(ctx context.Context, p *Pipeline) (*PipelineResult, error) {
	if p == nil || p.generator == nil {
		return nil, fmt.Errorf("qsmt: pipeline has no generator stage")
	}
	start := time.Now()
	out := &PipelineResult{}
	fail := func(err error) (*PipelineResult, error) {
		out.Elapsed = time.Since(start)
		return out, err
	}
	res, err := s.SolveContext(ctx, p.generator)
	if err != nil {
		return fail(fmt.Errorf("qsmt: pipeline stage 0 (%s): %w", p.generator.Name(), err))
	}
	if res.Witness.Kind != WitnessString {
		return fail(fmt.Errorf("qsmt: pipeline generator %s produced a non-string witness", p.generator.Name()))
	}
	out.Stages = []StageResult{{Name: p.generator.Name(), Output: res.Witness.Str, Result: res}}
	out.Attempts = res.Attempts
	current := res.Witness.Str
	out.Output = current
	for i, st := range p.stages {
		c := st.make(current)
		res, err := s.SolveContext(ctx, c)
		if err != nil {
			return fail(fmt.Errorf("qsmt: pipeline stage %d (%s): %w", i+1, st.name, err))
		}
		if res.Witness.Kind != WitnessString {
			return fail(fmt.Errorf("qsmt: pipeline stage %d (%s) produced a non-string witness", i+1, st.name))
		}
		current = res.Witness.Str
		out.Stages = append(out.Stages, StageResult{Name: st.name, Output: current, Result: res})
		out.Attempts += res.Attempts
		out.Output = current
	}
	out.Elapsed = time.Since(start)
	return out, nil
}
